//! The decoder-only causal language model — the LLaMA substitute.
//!
//! Architecture (LLaMA-flavoured at reduced scale): token + learned absolute
//! position embeddings, pre-RMSNorm blocks with multi-head causal attention
//! and gated-SiLU feed-forward, a final RMSNorm, and a weight-tied LM head.
//! (The paper's backbone uses rotary embeddings; learned absolute positions
//! are an equivalent-capacity substitute at this scale — see DESIGN.md.)
//!
//! Two execution paths:
//! * **training** — define-by-run autograd graphs with teacher forcing and
//!   response-only loss (Eqn. 7);
//! * **inference** — a per-sequence [`KvCache`], the optimization the paper
//!   highlights in §III-D2. [`CausalLm::forward_block`] is the fast path:
//!   one fused, allocation-free forward over a packed block of token rows,
//!   where every cache slot contributes its next `n ≥ 1` tokens (a decode
//!   step is `n = 1`, a prompt prefill is the whole prompt), split into
//!   row lanes that run on the pool's workers. [`CausalLm::advance`],
//!   [`CausalLm::advance_batch`], [`CausalLm::prefill`] and
//!   [`CausalLm::prefill_batch`] are the one-token-at-a-time reference
//!   path it is checked against. Every row's arithmetic is the same in
//!   all of them, so batched serving (`lcrec-serve`) is bit-identical to
//!   sequential decoding.

use lcrec_par::Pool;
use lcrec_tensor::{
    init, matmul_acc, softmax_rows, AdamW, Graph, ParamId, ParamStore, Schedule, Tensor, Var,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The least GEMM work, in FLOPs, worth a row lane of its own in
/// [`CausalLm::forward_block`]: spawning and joining a scoped worker costs
/// about 40 µs, which the register-tiled kernel spends on roughly 1 MFLOP,
/// so a lane must carry about twice that to come out ahead.
const LANE_MIN_FLOPS: usize = 2 << 20;

/// LM hyperparameters.
#[derive(Clone, Debug)]
pub struct LmConfig {
    /// Vocabulary size (base words + index tokens).
    pub vocab: usize,
    /// Model width.
    pub dim: usize,
    /// Transformer blocks.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN hidden width.
    pub ff_hidden: usize,
    /// Maximum sequence length.
    pub max_seq: usize,
    /// Dropout during training.
    pub dropout: f32,
    /// Seed for initialization.
    pub seed: u64,
}

impl LmConfig {
    /// A configuration sized for the small dataset presets.
    pub fn small(vocab: usize) -> Self {
        LmConfig { vocab, dim: 48, layers: 2, heads: 4, ff_hidden: 96, max_seq: 112, dropout: 0.1, seed: 1234 }
    }

    /// A micro configuration for unit tests.
    pub fn test(vocab: usize) -> Self {
        LmConfig { vocab, dim: 16, layers: 1, heads: 2, ff_hidden: 32, max_seq: 48, dropout: 0.0, seed: 5 }
    }

    /// The scale-tier configuration: 5.24M parameters, about 21 MB of f32
    /// weights (reported by [`CausalLm::param_bytes`]). That is an order of
    /// magnitude more work per token than the smaller tiers, but it still
    /// fits a server-class last-level cache (300 MiB on the machine the
    /// serving benchmark was measured on), and a decode step streams its
    /// weights at about 0.2 GB/s against a measured 23 GB/s. Serving at
    /// this tier is therefore bound by the LM's arithmetic, not by memory
    /// traffic (see docs/PERFORMANCE.md, "Scale tiers").
    pub fn large(vocab: usize) -> Self {
        LmConfig { vocab, dim: 320, layers: 5, heads: 8, ff_hidden: 640, max_seq: 160, dropout: 0.1, seed: 1234 }
    }
}

#[derive(Debug)]
struct Block {
    norm1: ParamId,
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
    norm2: ParamId,
    w_gate: ParamId,
    w_up: ParamId,
    w_down: ParamId,
}

/// The causal LM.
#[derive(Debug)]
pub struct CausalLm {
    cfg: LmConfig,
    ps: ParamStore,
    tok_emb: ParamId,
    pos_emb: ParamId,
    blocks: Vec<Block>,
    final_norm: ParamId,
}

/// Per-sequence attention cache: keys/values for every layer and head.
#[derive(Clone)]
#[derive(Debug)]
pub struct KvCache {
    /// `k[layer]` is `[len, dim]` flattened (head-major within a row).
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    len: usize,
}

impl KvCache {
    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Preallocated working memory for the fused forward
/// ([`CausalLm::forward_block`]).
///
/// The reference step ([`CausalLm::advance_batch`]) allocates every
/// intermediate (`x`, q/k/v, attention context, FFN activations, logits)
/// fresh on each call; decode dominates end-to-end cost, so those
/// allocations would sit on the hottest loop of the system. A
/// `DecodeScratch` hoists all of them into buffers that are reused across
/// calls — one set per row lane, grown to its high-water mark — so once
/// warmed up the activations need **no heap allocation**; only the KV
/// caches grow.
///
/// The scratch also caches the transpose of the tied LM head
/// (`tok_emb^T`), turning the per-token logit computation from `vocab`
/// scalar dot products into one dense matmul whose inner loop runs
/// contiguously over the vocabulary (see `docs/PERFORMANCE.md`). Every
/// lane reads the same transpose.
///
/// # Lifecycle
///
/// Create one with [`CausalLm::new_scratch`] *after* the model is trained
/// and reuse it for any number of forward calls against that model: the
/// cached head transpose is a snapshot of `tok_emb` taken at construction,
/// so a scratch must not outlive a parameter update (create a fresh one
/// after further training). The serving engine holds one scratch for its
/// whole lifetime — it borrows the model immutably, so the parameters
/// cannot change underneath it — and the beam-search entry points create
/// one per call.
#[derive(Clone, Debug)]
pub struct DecodeScratch {
    /// `tok_emb` transposed to `[dim, vocab]` for the tied-head matmul.
    head_t: Vec<f32>,
    /// One set of activation buffers per row lane.
    lanes: Vec<LaneBuffers>,
    /// `slots × vocab` logits, one row per slot, written lane by lane.
    logits: Vec<f32>,
}

/// The activation buffers of one row lane, packed row-major over the
/// lane's token rows (`xs` … `down`) or its slots (`xf`).
#[derive(Clone, Debug, Default)]
struct LaneBuffers {
    xs: Vec<f32>,
    xn: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    ctx: Vec<f32>,
    att: Vec<f32>,
    gate: Vec<f32>,
    up: Vec<f32>,
    hid: Vec<f32>,
    down: Vec<f32>,
    scores: Vec<f32>,
    probs: Vec<f32>,
    xf: Vec<f32>,
}

/// One row lane of a [`CausalLm::forward_block`] call: a contiguous group
/// of slots, their caches and token runs, and the slots' rows of the
/// output logits.
struct Lane<'a, 'c> {
    buf: &'a mut LaneBuffers,
    caches: &'a mut [&'c mut KvCache],
    seqs: &'a [&'a [u32]],
    logits: &'a mut [f32],
}

/// Grows `buf` to `len` elements, all zero, without shrinking its
/// capacity — after warm-up this never allocates.
fn ensure_zeroed(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

impl CausalLm {
    /// Builds an untrained LM.
    pub fn new(cfg: LmConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ps = ParamStore::new();
        let tok_emb = ps.add_no_decay("tok_emb", init::lm_default(&[cfg.vocab, cfg.dim], &mut rng));
        let pos_emb = ps.add_no_decay("pos_emb", init::lm_default(&[cfg.max_seq, cfg.dim], &mut rng));
        let blocks = (0..cfg.layers)
            .map(|l| Block {
                norm1: ps.add_no_decay(&format!("b{l}.norm1"), Tensor::full(&[cfg.dim], 1.0)),
                wq: ps.add(&format!("b{l}.wq"), init::xavier(&[cfg.dim, cfg.dim], &mut rng)),
                wk: ps.add(&format!("b{l}.wk"), init::xavier(&[cfg.dim, cfg.dim], &mut rng)),
                wv: ps.add(&format!("b{l}.wv"), init::xavier(&[cfg.dim, cfg.dim], &mut rng)),
                wo: ps.add(&format!("b{l}.wo"), init::xavier(&[cfg.dim, cfg.dim], &mut rng)),
                norm2: ps.add_no_decay(&format!("b{l}.norm2"), Tensor::full(&[cfg.dim], 1.0)),
                w_gate: ps.add(&format!("b{l}.w_gate"), init::xavier(&[cfg.dim, cfg.ff_hidden], &mut rng)),
                w_up: ps.add(&format!("b{l}.w_up"), init::xavier(&[cfg.dim, cfg.ff_hidden], &mut rng)),
                w_down: ps.add(&format!("b{l}.w_down"), init::xavier(&[cfg.ff_hidden, cfg.dim], &mut rng)),
            })
            .collect();
        let final_norm = ps.add_no_decay("final_norm", Tensor::full(&[cfg.dim], 1.0));
        CausalLm { cfg, ps, tok_emb, pos_emb, blocks, final_norm }
    }

    /// The configuration.
    pub fn config(&self) -> &LmConfig {
        &self.cfg
    }

    /// Total scalar parameters.
    pub fn num_params(&self) -> usize {
        self.ps.num_scalars()
    }

    /// Resident weight size in bytes (f32 scalars). The scale benchmark
    /// reports this to show whether a tier's weights fit in cache.
    pub fn param_bytes(&self) -> usize {
        self.num_params() * std::mem::size_of::<f32>()
    }

    /// The token-embedding matrix (for Figure 4's visualization).
    pub fn token_embeddings(&self) -> &Tensor {
        self.ps.value(self.tok_emb)
    }

    // ---------------------------------------------------------------- train

    /// Graph forward over `[b, t]` right-padded token rows → logits
    /// `[b*t, vocab]`.
    pub fn forward_logits(&self, g: &mut Graph, tokens: &[u32], b: usize, t: usize) -> Var {
        assert!(t <= self.cfg.max_seq, "sequence {t} exceeds max_seq {}", self.cfg.max_seq);
        let table = g.param(&self.ps, self.tok_emb);
        let x = g.embedding(table, tokens);
        let pos_table = g.param(&self.ps, self.pos_emb);
        let pos_ids: Vec<u32> = (0..b).flat_map(|_| 0..t as u32).collect();
        let p = g.embedding(pos_table, &pos_ids);
        let x = g.add(x, p);
        let mut x = g.dropout(x, self.cfg.dropout);
        let mask = crate::mask_cache(t);
        for blk in &self.blocks {
            x = self.block_forward(g, blk, x, b, t, &mask);
        }
        let gamma = g.param(&self.ps, self.final_norm);
        let x = g.rms_norm(x, gamma, 1e-6);
        g.matmul_nt(x, table)
    }

    fn block_forward(&self, g: &mut Graph, blk: &Block, x: Var, b: usize, t: usize, mask: &Tensor) -> Var {
        let h = self.cfg.heads;
        let dh = self.cfg.dim / h;
        let g1 = g.param(&self.ps, blk.norm1);
        let xn = g.rms_norm(x, g1, 1e-6);
        let wq = g.param(&self.ps, blk.wq);
        let wk = g.param(&self.ps, blk.wk);
        let wv = g.param(&self.ps, blk.wv);
        let q = g.matmul(xn, wq);
        let k = g.matmul(xn, wk);
        let v = g.matmul(xn, wv);
        let qh = g.split_heads(q, b, t, h);
        let kh = g.split_heads(k, b, t, h);
        let vh = g.split_heads(v, b, t, h);
        let scores = g.bmm_nt(qh, kh);
        let scores = g.scale(scores, 1.0 / (dh as f32).sqrt());
        let flat = g.reshape(scores, &[b * h * t, t]);
        let masked = g.add_cycle_const(flat, mask);
        let resh = g.reshape(masked, &[b * h, t, t]);
        let probs = g.softmax(resh);
        let probs = g.dropout(probs, self.cfg.dropout);
        let ctx = g.bmm(probs, vh);
        let merged = g.merge_heads(ctx, b, t, h);
        let wo = g.param(&self.ps, blk.wo);
        let att = g.matmul(merged, wo);
        let att = g.dropout(att, self.cfg.dropout);
        let x = g.add(x, att);
        // Gated FFN.
        let g2 = g.param(&self.ps, blk.norm2);
        let xn2 = g.rms_norm(x, g2, 1e-6);
        let wg = g.param(&self.ps, blk.w_gate);
        let wu = g.param(&self.ps, blk.w_up);
        let wd = g.param(&self.ps, blk.w_down);
        let gate = g.matmul(xn2, wg);
        let gate = g.silu(gate);
        let up = g.matmul(xn2, wu);
        let hid = g.mul(gate, up);
        let down = g.matmul(hid, wd);
        let down = g.dropout(down, self.cfg.dropout);
        g.add(x, down)
    }

    /// Mutable parameter access (the trainer drives the optimizer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.ps
    }

    /// Immutable parameter access.
    pub fn store(&self) -> &ParamStore {
        &self.ps
    }

    // ------------------------------------------------------------- inference

    /// An empty cache.
    pub fn new_cache(&self) -> KvCache {
        KvCache {
            k: vec![Vec::new(); self.cfg.layers],
            v: vec![Vec::new(); self.cfg.layers],
            len: 0,
        }
    }

    /// Feeds one token through the raw inference path, appending to the
    /// cache and returning the logits for the next position.
    ///
    /// This *is* [`CausalLm::advance_batch`] with a single slot, so the
    /// one-request path and the batched serving path share every
    /// instruction — there is no separate arithmetic to drift apart.
    pub fn advance(&self, cache: &mut KvCache, token: u32) -> Vec<f32> {
        let mut slots = [cache];
        self.advance_batch(&mut slots, &[token]).pop().unwrap_or_default()
    }

    /// Feeds one token into each of `b` independent sequences through a
    /// **single weight pass**: `caches[i]` receives `tokens[i]`, and slots
    /// may sit at different positions. Returns one logit row per slot, in
    /// slot order.
    ///
    /// The per-row arithmetic (RMS norm, attention over the slot's own
    /// cache, gated FFN, tied-head logits) is exactly the batch-1 path —
    /// the batched matmul accumulates strictly row by row — so batched and
    /// sequential decoding produce bit-identical logits. That contract is
    /// what lets the serving engine (`lcrec-serve`) batch requests without
    /// changing any ranking; `tests/serving.rs` pins it.
    pub fn advance_batch(&self, caches: &mut [&mut KvCache], tokens: &[u32]) -> Vec<Vec<f32>> {
        assert_eq!(caches.len(), tokens.len(), "one token per cache slot");
        let b = caches.len();
        if b == 0 {
            return Vec::new();
        }
        let d = self.cfg.dim;
        let h = self.cfg.heads;
        let dh = d / h;
        let tok_table = self.ps.value(self.tok_emb);
        let pos_table = self.ps.value(self.pos_emb);
        let mut xs = vec![0.0f32; b * d];
        for ((&token, cache), row) in
            tokens.iter().zip(caches.iter()).zip(xs.chunks_exact_mut(d))
        {
            let pos = cache.len.min(self.cfg.max_seq - 1);
            row.copy_from_slice(tok_table.row(token as usize));
            for (xi, pi) in row.iter_mut().zip(pos_table.row(pos)) {
                *xi += pi;
            }
        }
        for (l, blk) in self.blocks.iter().enumerate() {
            let xn = rms_rows(&xs, self.ps.value(blk.norm1).data(), b);
            let q = batmat(&xn, self.ps.value(blk.wq), b);
            let k = batmat(&xn, self.ps.value(blk.wk), b);
            let v = batmat(&xn, self.ps.value(blk.wv), b);
            let scale = 1.0 / (dh as f32).sqrt();
            let mut ctx = vec![0.0f32; b * d];
            for (r, cache) in caches.iter_mut().enumerate() {
                cache.k[l].extend_from_slice(&k[r * d..(r + 1) * d]); // lint: allow(panic, reason = "l enumerates self.blocks, which sized every cache; batmat returns b*d values and r < b")
                cache.v[l].extend_from_slice(&v[r * d..(r + 1) * d]); // lint: allow(panic, reason = "l enumerates self.blocks, which sized every cache; batmat returns b*d values and r < b")
                let t = cache.len + 1;
                for head in 0..h {
                    let qh = &q[r * d + head * dh..r * d + (head + 1) * dh]; // lint: allow(panic, reason = "head < h and h * dh == d, so the slice stays inside row r of the b*d buffer")
                    // Scores over all of this slot's cached positions.
                    let mut scores = Vec::with_capacity(t);
                    for ti in 0..t {
                        let kh = &cache.k[l][ti * d + head * dh..ti * d + (head + 1) * dh]; // lint: allow(panic, reason = "cache.k[l] holds t rows of d values after the extend above; ti < t")
                        let dot: f32 = qh.iter().zip(kh).map(|(qv, kv)| qv * kv).sum();
                        scores.push(dot * scale);
                    }
                    let mut probs = vec![0.0f32; t];
                    softmax_rows(&scores, &mut probs, t);
                    let out = &mut ctx[r * d + head * dh..r * d + (head + 1) * dh]; // lint: allow(panic, reason = "ctx was allocated with b*d zeros; r < b and head < h with h * dh == d")
                    for (ti, &p) in probs.iter().enumerate() {
                        let vh = &cache.v[l][ti * d + head * dh..ti * d + (head + 1) * dh]; // lint: allow(panic, reason = "cache.v[l] holds t rows of d values after the extend above; ti < t")
                        for (o, &vv) in out.iter_mut().zip(vh) {
                            *o += p * vv;
                        }
                    }
                }
            }
            let att = batmat(&ctx, self.ps.value(blk.wo), b);
            for (xi, a) in xs.iter_mut().zip(&att) {
                *xi += a;
            }
            let xn2 = rms_rows(&xs, self.ps.value(blk.norm2).data(), b);
            let gate = batmat(&xn2, self.ps.value(blk.w_gate), b);
            let up = batmat(&xn2, self.ps.value(blk.w_up), b);
            let hid: Vec<f32> = gate
                .iter()
                .zip(&up)
                .map(|(&gv, &uv)| gv * lcrec_tensor::sigmoid(gv) * uv)
                .collect();
            let down = batmat(&hid, self.ps.value(blk.w_down), b);
            for (xi, dv) in xs.iter_mut().zip(&down) {
                *xi += dv;
            }
        }
        let mut out = Vec::with_capacity(b);
        for (cache, xrow) in caches.iter_mut().zip(xs.chunks_exact(d)) {
            cache.len += 1;
            let xf = rms_vec(xrow, self.ps.value(self.final_norm).data());
            // Tied head: logits = xf @ tok_emb^T.
            let mut logits = vec![0.0f32; self.cfg.vocab];
            for (vi, logit) in logits.iter_mut().enumerate() {
                let row = tok_table.row(vi);
                let mut acc = 0.0;
                for (a, w) in xf.iter().zip(row) {
                    acc += a * w;
                }
                *logit = acc;
            }
            out.push(logits);
        }
        out
    }

    /// Runs all `tokens` through the cache; returns the logits after the
    /// last token.
    pub fn prefill(&self, cache: &mut KvCache, tokens: &[u32]) -> Vec<f32> {
        assert!(!tokens.is_empty(), "prefill needs at least one token");
        let mut logits = Vec::new();
        for &t in tokens {
            logits = self.advance(cache, t);
        }
        logits
    }

    /// Batched [`CausalLm::prefill`]: runs each sequence through its own
    /// cache in position lockstep — step `t` feeds token `t` of every
    /// sequence that still has one, sharing a single weight pass per step.
    /// Ragged lengths simply drop finished slots from later steps, so each
    /// slot sees exactly the arithmetic of a solo prefill (bit-identical
    /// logits and cache contents).
    ///
    /// Returns the logits after each sequence's last token, in slot order.
    /// An empty sequence yields an empty logit row (its cache untouched).
    pub fn prefill_batch(&self, caches: &mut [KvCache], seqs: &[&[u32]]) -> Vec<Vec<f32>> {
        assert_eq!(caches.len(), seqs.len(), "one cache per sequence");
        let longest = seqs.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut outs = vec![Vec::new(); seqs.len()];
        for t in 0..longest {
            let mut slots: Vec<&mut KvCache> = Vec::new();
            let mut toks: Vec<u32> = Vec::new();
            // Live slots this step, each tagged with its output row and
            // whether `t` is its final token.
            let mut live: Vec<(usize, bool)> = Vec::new();
            for (i, (cache, seq)) in caches.iter_mut().zip(seqs).enumerate() {
                if let Some(&tok) = seq.get(t) {
                    slots.push(cache);
                    toks.push(tok);
                    live.push((i, t + 1 == seq.len()));
                }
            }
            let logits = self.advance_batch(&mut slots, &toks);
            for (row, &(i, last)) in logits.into_iter().zip(&live) {
                if last {
                    if let Some(out) = outs.get_mut(i) {
                        *out = row;
                    }
                }
            }
        }
        outs
    }

    /// Allocates a [`DecodeScratch`] for this model's current parameters,
    /// caching the tied-head transpose. See the scratch's lifecycle notes:
    /// create it after training, before decoding.
    pub fn new_scratch(&self) -> DecodeScratch {
        let tok_table = self.ps.value(self.tok_emb);
        DecodeScratch {
            head_t: tok_table.transposed().data().to_vec(),
            lanes: Vec::new(),
            logits: Vec::new(),
        }
    }

    /// The fused forward: feeds `seqs[i]` into `caches[i]` for every slot
    /// at once and returns, packed `slots × vocab` in slot order, the
    /// logits after each slot's last token. The rows are borrowed from the
    /// scratch and overwritten by the next call. A decode step passes one
    /// token per slot; a prefill passes whole prompts. A slot with no
    /// tokens keeps its cache as it was and gets a row of zeros.
    ///
    /// All token rows of the block go through each layer together, so
    /// every projection is one GEMM over `Σ len` rows. Row `j` of a slot
    /// whose cache held `p` positions embeds position `p + j` (clamped to
    /// `max_seq - 1`, like the reference path) and attends causally over
    /// `cache[..=p + j]`; the tied head runs only on each slot's last row.
    ///
    /// The block is split into up to `pool.threads()` row lanes: contiguous
    /// slot groups with about equal row counts, each running the whole
    /// layer stack — GEMMs, attention, SiLU, RMSNorm and its share of the
    /// head — on its own pool worker with its own buffers in `scratch`
    /// (every lane must carry at least 2 MFLOP, so tiny blocks stay on the
    /// calling thread). The matmuls go through the process-wide
    /// [`lcrec_tensor::InferenceBackend`].
    ///
    /// **Bit-identity contract:** rows never mix — each row's arithmetic is
    /// the reference path's, in the same order — so for any cache states,
    /// block composition, lane count and backend the logits and the
    /// updated caches are bit-identical to feeding the same tokens one at
    /// a time through [`CausalLm::advance_batch`] (`tests/decode.rs` pins
    /// this against [`CausalLm::prefill_batch`] and the graph forward).
    ///
    /// With observability on, the call records one `lm.decode_s` sample
    /// and its rows in `lm.decode_tokens` when every slot feeds at most
    /// one token, and one `lm.prefill_s` sample and `lm.prefill_tokens`
    /// otherwise — on the calling thread, whatever the lane count.
    pub fn forward_block<'s>(
        &self,
        pool: &Pool,
        scratch: &'s mut DecodeScratch,
        caches: &mut [&mut KvCache],
        seqs: &[&[u32]],
    ) -> &'s [f32] {
        assert_eq!(caches.len(), seqs.len(), "one token run per cache slot");
        let vocab = self.cfg.vocab;
        ensure_zeroed(&mut scratch.logits, caches.len() * vocab);
        let rows: usize = seqs.iter().map(|s| s.len()).sum();
        if rows == 0 {
            return &scratch.logits;
        }
        let obs_watch = lcrec_obs::stopwatch();
        debug_assert_eq!(scratch.head_t.len(), self.cfg.dim * vocab, "stale scratch: head transpose does not match the model (create the scratch after training)");
        let bounds = lane_bounds(seqs, self.lane_count(pool, seqs.len(), rows));
        let lane_n = bounds.len().saturating_sub(1);
        if scratch.lanes.len() < lane_n {
            scratch.lanes.resize_with(lane_n, LaneBuffers::default);
        }
        let head_t = &scratch.head_t;
        let mut lanes: Vec<Lane<'_, '_>> = Vec::with_capacity(lane_n);
        let (mut caches_rest, mut logits_rest) = (caches, scratch.logits.as_mut_slice());
        for (buf, w) in scratch.lanes.iter_mut().zip(bounds.windows(2)) {
            let (lo, hi) = (w[0], w[1]); // lint: allow(panic, reason = "windows(2) yields two-element slices")
            let (c, c_rest) = std::mem::take(&mut caches_rest).split_at_mut(hi - lo);
            let (l, l_rest) = std::mem::take(&mut logits_rest).split_at_mut((hi - lo) * vocab);
            (caches_rest, logits_rest) = (c_rest, l_rest);
            lanes.push(Lane { buf, caches: c, seqs: &seqs[lo..hi], logits: l }); // lint: allow(panic, reason = "lane_bounds returns ascending bounds from 0 to seqs.len()")
        }
        pool.for_each_mut(&mut lanes, |_, lane| self.forward_lane(head_t, lane));
        if obs_watch.running() {
            if seqs.iter().all(|s| s.len() <= 1) {
                lcrec_obs::counter_add("lm.decode_tokens", rows as u64);
                obs_watch.stop("lm.decode_s");
            } else {
                lcrec_obs::counter_add("lm.prefill_tokens", rows as u64);
                obs_watch.stop("lm.prefill_s");
            }
        }
        &scratch.logits
    }

    /// How many row lanes a block of `rows` token rows over `slots` slots
    /// gets: one per pool thread, but no more than there are slots, and
    /// no lane with less than [`LANE_MIN_FLOPS`] of GEMM work.
    fn lane_count(&self, pool: &Pool, slots: usize, rows: usize) -> usize {
        let (d, ff) = (self.cfg.dim, self.cfg.ff_hidden);
        let row_flops = 2 * self.cfg.layers * (4 * d * d + 3 * d * ff);
        let flops = rows * row_flops + slots * 2 * d * self.cfg.vocab;
        pool.threads().min(slots).min(flops / LANE_MIN_FLOPS).max(1)
    }

    /// Runs one row lane through the whole layer stack and the tied head;
    /// see [`CausalLm::forward_block`].
    fn forward_lane(&self, head_t: &[f32], lane: &mut Lane<'_, '_>) {
        let backend = lcrec_tensor::active_backend();
        let d = self.cfg.dim;
        let h = self.cfg.heads;
        let dh = d / h;
        let ff = self.cfg.ff_hidden;
        let max_pos = self.cfg.max_seq - 1;
        let tok_table = self.ps.value(self.tok_emb);
        let pos_table = self.ps.value(self.pos_emb);
        let rows: usize = lane.seqs.iter().map(|s| s.len()).sum();
        let slots = lane.seqs.len();
        let buf = &mut *lane.buf;
        ensure_zeroed(&mut buf.xs, rows * d);
        ensure_zeroed(&mut buf.xn, rows * d);
        ensure_zeroed(&mut buf.att, rows * d);
        ensure_zeroed(&mut buf.hid, rows * ff);
        ensure_zeroed(&mut buf.down, rows * d);
        // Attention buffers sized to the deepest slot after this call (the
        // clamp to max_seq is positional only; callers may run longer).
        let tmax =
            lane.caches.iter().zip(lane.seqs).map(|(c, s)| c.len + s.len()).max().unwrap_or(1);
        ensure_zeroed(&mut buf.scores, tmax);
        ensure_zeroed(&mut buf.probs, tmax);
        let tokens = lane.caches.iter().zip(lane.seqs).flat_map(|(cache, seq)| {
            seq.iter().enumerate().map(move |(j, &tok)| (tok, (cache.len + j).min(max_pos)))
        });
        for ((tok, pos), row) in tokens.zip(buf.xs.chunks_exact_mut(d)) {
            row.copy_from_slice(tok_table.row(tok as usize));
            for (xi, pi) in row.iter_mut().zip(pos_table.row(pos)) {
                *xi += pi;
            }
        }
        let scale = 1.0 / (dh as f32).sqrt();
        for (l, blk) in self.blocks.iter().enumerate() {
            rms_rows_into(&buf.xs, self.ps.value(blk.norm1).data(), &mut buf.xn);
            ensure_zeroed(&mut buf.q, rows * d);
            ensure_zeroed(&mut buf.k, rows * d);
            ensure_zeroed(&mut buf.v, rows * d);
            backend.gemm_acc(&buf.xn, self.ps.value(blk.wq).data(), &mut buf.q, rows, d, d);
            backend.gemm_acc(&buf.xn, self.ps.value(blk.wk).data(), &mut buf.k, rows, d, d);
            backend.gemm_acc(&buf.xn, self.ps.value(blk.wv).data(), &mut buf.v, rows, d, d);
            ensure_zeroed(&mut buf.ctx, rows * d);
            let mut r0 = 0;
            for (cache, seq) in lane.caches.iter_mut().zip(lane.seqs) {
                let (n, past) = (seq.len(), cache.len);
                cache.k[l].extend_from_slice(&buf.k[r0 * d..(r0 + n) * d]); // lint: allow(panic, reason = "l enumerates self.blocks, which sized every cache; buf.k holds rows*d values and the slot's rows r0..r0+n lie inside it")
                cache.v[l].extend_from_slice(&buf.v[r0 * d..(r0 + n) * d]); // lint: allow(panic, reason = "l enumerates self.blocks, which sized every cache; buf.v holds rows*d values and the slot's rows r0..r0+n lie inside it")
                for r in r0..r0 + n {
                    // Causal: row r sees the slot's past and its own block
                    // rows up to itself.
                    let t = past + (r - r0) + 1;
                    for head in 0..h {
                        let (lo, hi) = (r * d + head * dh, r * d + (head + 1) * dh);
                        let qh = &buf.q[lo..hi]; // lint: allow(panic, reason = "r < rows and head < h with h * dh == d, so the slice stays inside row r of the rows*d buffer")
                        let scores = &mut buf.scores[..t]; // lint: allow(panic, reason = "the buffer was sized to the max of every slot's len + run length, and t is at most this slot's")
                        for (ti, s) in scores.iter_mut().enumerate() {
                            let kh = &cache.k[l][ti * d + head * dh..ti * d + (head + 1) * dh]; // lint: allow(panic, reason = "cache.k[l] holds past + n rows after the extend above; ti < t <= past + n")
                            let dot: f32 = qh.iter().zip(kh).map(|(qv, kv)| qv * kv).sum();
                            *s = dot * scale;
                        }
                        let probs = &mut buf.probs[..t]; // lint: allow(panic, reason = "sized like the score buffer")
                        softmax_rows(scores, probs, t);
                        let out = &mut buf.ctx[lo..hi]; // lint: allow(panic, reason = "ctx was sized to rows*d zeros; same range as qh")
                        for (ti, &p) in probs.iter().enumerate() {
                            let vh = &cache.v[l][ti * d + head * dh..ti * d + (head + 1) * dh]; // lint: allow(panic, reason = "cache.v[l] holds past + n rows after the extend above; ti < t <= past + n")
                            for (o, &vv) in out.iter_mut().zip(vh) {
                                *o += p * vv;
                            }
                        }
                    }
                }
                r0 += n;
            }
            buf.att.fill(0.0);
            backend.gemm_acc(&buf.ctx, self.ps.value(blk.wo).data(), &mut buf.att, rows, d, d);
            for (xi, a) in buf.xs.iter_mut().zip(&buf.att) {
                *xi += a;
            }
            rms_rows_into(&buf.xs, self.ps.value(blk.norm2).data(), &mut buf.xn);
            ensure_zeroed(&mut buf.gate, rows * ff);
            ensure_zeroed(&mut buf.up, rows * ff);
            backend.gemm_acc(&buf.xn, self.ps.value(blk.w_gate).data(), &mut buf.gate, rows, d, ff);
            backend.gemm_acc(&buf.xn, self.ps.value(blk.w_up).data(), &mut buf.up, rows, d, ff);
            for ((hv, &gv), &uv) in buf.hid.iter_mut().zip(&buf.gate).zip(&buf.up) {
                *hv = gv * lcrec_tensor::sigmoid(gv) * uv;
            }
            buf.down.fill(0.0);
            let w_down = self.ps.value(blk.w_down).data();
            backend.gemm_acc(&buf.hid, w_down, &mut buf.down, rows, ff, d);
            for (xi, dv) in buf.xs.iter_mut().zip(&buf.down) {
                *xi += dv;
            }
        }
        // Tied head on each slot's last row: logits = xf @ tok_emb^T,
        // through the cached transpose so the inner loop streams
        // contiguously over the vocabulary. The dense kernel keeps every
        // `+ 0.0 * w` term, matching the scalar dot loop of the reference
        // path bit for bit. A slot with no rows keeps a zero `xf` row.
        ensure_zeroed(&mut buf.xf, slots * d);
        let gamma = self.ps.value(self.final_norm).data();
        let mut last = 0;
        let per_slot = lane.caches.iter_mut().zip(lane.seqs);
        for ((cache, seq), xf) in per_slot.zip(buf.xf.chunks_exact_mut(d)) {
            cache.len += seq.len();
            last += seq.len();
            if !seq.is_empty() {
                rms_row_into(&buf.xs[(last - 1) * d..last * d], gamma, xf); // lint: allow(panic, reason = "last counts this lane's rows through the slot, so last - 1 < rows")
            }
        }
        backend.gemm_dense_acc(&buf.xf, head_t, lane.logits, slots, d, self.cfg.vocab);
    }

    /// Log-probability of `continuation` given `prefix` (sums per-token
    /// log-softmax scores). Used for pairwise scoring (Table V).
    pub fn sequence_logprob(&self, prefix: &[u32], continuation: &[u32]) -> f32 {
        let mut cache = self.new_cache();
        let mut logits = self.prefill(&mut cache, prefix);
        let mut total = 0.0;
        for &tok in continuation {
            total += log_softmax_pick(&logits, tok);
            logits = self.advance(&mut cache, tok);
        }
        total
    }

    /// Greedy decoding until `stop` returns true or `max_new` tokens.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrec_core::{CausalLm, LmConfig};
    ///
    /// let lm = CausalLm::new(LmConfig::test(16));
    /// let out = lm.greedy(&[1, 2, 3], 4, |_| false);
    /// assert_eq!(out.len(), 4, "no stop token: decode all 4 requested");
    /// assert!(out.iter().all(|&t| (t as usize) < lm.config().vocab));
    /// ```
    pub fn greedy(&self, prefix: &[u32], max_new: usize, stop: impl Fn(u32) -> bool) -> Vec<u32> {
        let mut cache = self.new_cache();
        let mut logits = self.prefill(&mut cache, prefix);
        let mut out = Vec::new();
        for _ in 0..max_new {
            let next = argmax(&logits) as u32;
            if stop(next) {
                break;
            }
            out.push(next);
            if cache.len >= self.cfg.max_seq - 1 {
                break;
            }
            logits = self.advance(&mut cache, next);
        }
        out
    }

    /// Full-graph logits for a single sequence without a cache — the
    /// reference path the KV cache is benchmarked against (§III-D2).
    pub fn logits_uncached(&self, tokens: &[u32]) -> Vec<f32> {
        let t = tokens.len().min(self.cfg.max_seq);
        let toks = &tokens[tokens.len() - t..];
        let mut g = Graph::inference();
        let logits = self.forward_logits(&mut g, toks, 1, t);
        let all = g.value(logits);
        all.row(t - 1).to_vec()
    }
}

fn rms_vec(x: &[f32], gamma: &[f32]) -> Vec<f32> {
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let r = 1.0 / (ms + 1e-6).sqrt();
    x.iter().zip(gamma).map(|(&v, &g)| v * r * g).collect()
}

/// Row-wise [`rms_vec`] over `b` packed rows of width `gamma.len()`.
fn rms_rows(xs: &[f32], gamma: &[f32], b: usize) -> Vec<f32> {
    let d = gamma.len();
    debug_assert_eq!(xs.len(), b * d);
    let mut out = Vec::with_capacity(b * d);
    for row in xs.chunks_exact(d.max(1)) {
        out.extend(rms_vec(row, gamma));
    }
    out
}

/// Allocation-free [`rms_rows`]: normalizes each packed row of `xs` into
/// the matching row of `out`, with exactly [`rms_vec`]'s arithmetic (same
/// mean-square reduction order, same per-element `v * r * g`), so the
/// fused decode path stays bit-identical to the reference path.
fn rms_rows_into(xs: &[f32], gamma: &[f32], out: &mut [f32]) {
    let d = gamma.len().max(1);
    debug_assert_eq!(xs.len(), out.len());
    for (row, orow) in xs.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        rms_row_into(row, gamma, orow);
    }
}

/// One row of [`rms_rows_into`].
fn rms_row_into(row: &[f32], gamma: &[f32], out: &mut [f32]) {
    let ms = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
    let r = 1.0 / (ms + 1e-6).sqrt();
    for ((o, &v), &g) in out.iter_mut().zip(row).zip(gamma) {
        *o = v * r * g;
    }
}

/// Splits `seqs` into at most `lanes` contiguous slot groups with about
/// equal token-row counts; returns the group bounds `0 = b0 < … < bn =
/// seqs.len()`. A new group starts at the first slot whose preceding rows
/// reach the next `1/lanes` share of the total, provided the group before
/// it got at least one row.
fn lane_bounds(seqs: &[&[u32]], lanes: usize) -> Vec<usize> {
    let total: usize = seqs.iter().map(|s| s.len()).sum();
    let mut bounds = vec![0];
    let (mut before, mut at_cut) = (0, 0);
    for (i, seq) in seqs.iter().enumerate() {
        if bounds.len() < lanes && before > at_cut && before * lanes >= total * bounds.len() {
            bounds.push(i);
            at_cut = before;
        }
        before += seq.len();
    }
    bounds.push(seqs.len());
    bounds
}

/// `b` packed row-vectors times one weight matrix in a single `matmul_acc`
/// call. The kernel accumulates each output row independently, in the same
/// element order as the `m = 1` case, so a batch of `b` rows is
/// bit-identical to `b` separate single-row multiplies — the foundation of
/// the batched-equals-sequential decoding contract.
fn batmat(xs: &[f32], w: &Tensor, b: usize) -> Vec<f32> {
    let (rows, cols) = (w.dim(0), w.dim(1));
    debug_assert_eq!(xs.len(), b * rows);
    let mut out = vec![0.0f32; b * cols];
    matmul_acc(xs, w.data(), &mut out, b, rows, cols);
    out
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut bv = f32::NEG_INFINITY;
    for (i, &x) in xs.iter().enumerate() {
        if x > bv {
            bv = x;
            best = i;
        }
    }
    best
}

/// `log softmax(logits)[pick]` computed stably.
pub fn log_softmax_pick(logits: &[f32], pick: u32) -> f32 {
    let mx = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let z: f32 = logits.iter().map(|&v| (v - mx).exp()).sum();
    logits[pick as usize] - mx - z.ln()
}

/// Training configuration for instruction tuning.
#[derive(Clone, Debug)]
pub struct LmTrainConfig {
    /// Peak learning rate.
    pub lr: f32,
    /// Epochs over the instruction data.
    pub epochs: usize,
    /// Sequences per optimizer step.
    ///
    /// Batches are **not** i.i.d. draws from the epoch: each epoch the
    /// examples are shuffled and then *stably* sorted by token length (see
    /// [`dense_batch_order`]), and consecutive ranks form a batch. Batches
    /// therefore pack examples of similar length — "dense batches" with
    /// minimal padding, since the padded width is the longest example in
    /// the batch — while the shuffle still moves equal-length examples
    /// between batches from epoch to epoch.
    pub batch: usize,
    /// Warmup steps of the cosine schedule.
    pub warmup: usize,
    /// Optional hard cap on optimizer steps (budget control).
    pub max_steps: Option<usize>,
    /// Seed for shuffling.
    pub seed: u64,
}

impl LmTrainConfig {
    /// Defaults for the small presets (the paper uses lr 5e-5 at 7B scale;
    /// a model this small wants a proportionally larger rate).
    pub fn small() -> Self {
        LmTrainConfig { lr: 1.5e-3, epochs: 4, batch: 16, warmup: 30, max_steps: None, seed: 99 }
    }
}

/// One tokenized training example: tokens plus the prompt length whose
/// positions are excluded from the loss.
pub type LmExample = (Vec<u32>, usize);

/// The epoch ordering used by [`train_lm_epochs`]: a Fisher–Yates shuffle
/// followed by a **stable** sort on example length. Consecutive ranks form
/// a batch (see [`LmTrainConfig::batch`]), so batches stay *dense* —
/// examples of similar length share a batch and little padding is wasted —
/// while equal-length examples keep a fresh random order every epoch.
///
/// The returned vector is a permutation of `0..lengths.len()` with
/// `lengths[order[j]]` non-decreasing in `j`.
pub fn dense_batch_order(lengths: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..lengths.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order.sort_by_key(|&i| lengths[i]);
    order
}

/// Instruction-tunes the LM on a fixed example set (Eqn. 7: next-token CE
/// on response positions only). Returns mean loss per epoch.
pub fn train_lm(lm: &mut CausalLm, examples: &[LmExample], cfg: &LmTrainConfig) -> Vec<f32> {
    train_lm_epochs(lm, cfg, examples.len(), |_| examples.to_vec())
}

/// Instruction-tunes with a per-epoch example provider — the paper pairs
/// each datum with **one sampled template per epoch**, so the example set
/// is regenerated every epoch.
pub fn train_lm_epochs(
    lm: &mut CausalLm,
    cfg: &LmTrainConfig,
    examples_per_epoch: usize,
    mut provider: impl FnMut(usize) -> Vec<LmExample>,
) -> Vec<f32> {
    let max_seq = lm.config().max_seq;
    let pad = lcrec_text::token::PAD;
    let total_steps = cfg
        .max_steps
        .unwrap_or(usize::MAX)
        .min(cfg.epochs * examples_per_epoch.div_ceil(cfg.batch));
    let mut opt = AdamW::new(cfg.lr).with_schedule(Schedule::CosineWarmup {
        warmup: cfg.warmup,
        total: total_steps.max(cfg.warmup + 1),
        min_ratio: 0.1,
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut epoch_losses = Vec::new();
    let mut steps = 0usize;
    let _span = lcrec_obs::span("lm.train");
    'outer: for epoch in 0..cfg.epochs {
        let _epoch_span = lcrec_obs::span("epoch");
        let examples = provider(epoch);
        if examples.is_empty() {
            epoch_losses.push(0.0);
            continue;
        }
        let lengths: Vec<usize> = examples.iter().map(|e| e.0.len()).collect();
        let order = dense_batch_order(&lengths, &mut rng);
        let mut sum = 0.0;
        let mut nb = 0usize;
        for chunk in order.chunks(cfg.batch) {
            // chunks() never yields an empty slice, so the max exists.
            let t = chunk.iter().map(|&i| examples[i].0.len()).max().unwrap_or(1).min(max_seq);
            let b = chunk.len();
            let mut tokens = vec![pad; b * t];
            let mut targets = vec![u32::MAX; b * t];
            for (row, &i) in chunk.iter().enumerate() {
                let (ex, prompt_len) = &examples[i];
                // Overlong examples lose their oldest (prompt) tokens; the
                // prompt boundary shifts left by the same amount.
                let cut = ex.len().saturating_sub(t);
                let ex = &ex[cut..];
                let plen = prompt_len.saturating_sub(cut).min(ex.len());
                for (j, &tok) in ex.iter().enumerate() {
                    tokens[row * t + j] = tok;
                    // Position j predicts token j+1; supervise only when
                    // the *predicted* token is inside the response.
                    if j + 1 < ex.len() && j + 1 >= plen {
                        targets[row * t + j] = ex[j + 1];
                    }
                }
            }
            let mut g = Graph::new();
            g.seed(cfg.seed ^ (steps as u64) << 8);
            let logits = lm.forward_logits(&mut g, &tokens, b, t);
            let loss = g.cross_entropy(logits, &targets, u32::MAX);
            sum += g.value(loss).item();
            nb += 1;
            let ps = lm.store_mut();
            ps.zero_grads();
            g.backward(loss, ps);
            ps.clip_grad_norm(1.0);
            opt.step(ps);
            lcrec_obs::counter_add("lm.train_steps", 1);
            steps += 1;
            if steps >= total_steps {
                epoch_losses.push(sum / nb as f32);
                break 'outer;
            }
        }
        epoch_losses.push(sum / nb.max(1) as f32);
    }
    epoch_losses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_and_uncached_logits_agree() {
        let lm = CausalLm::new(LmConfig::test(30));
        let tokens = [1u32, 7, 3, 9, 2];
        let mut cache = lm.new_cache();
        let cached = lm.prefill(&mut cache, &tokens);
        let uncached = lm.logits_uncached(&tokens);
        for (a, b) in cached.iter().zip(&uncached) {
            assert!((a - b).abs() < 1e-3, "cached {a} vs graph {b}");
        }
    }

    #[test]
    fn lm_memorizes_a_tiny_mapping() {
        // Three prompt→response pairs; the LM must learn them exactly.
        let mut lm = CausalLm::new(LmConfig::test(20));
        let examples: Vec<LmExample> = vec![
            (vec![1, 10, 11, 5, 2], 3),
            (vec![1, 12, 13, 6, 2], 3),
            (vec![1, 14, 15, 7, 2], 3),
        ];
        let cfg = LmTrainConfig { lr: 5e-3, epochs: 120, batch: 3, warmup: 5, max_steps: None, seed: 1 };
        let losses = train_lm(&mut lm, &examples, &cfg);
        assert!(losses.last().expect("epochs") < &0.1, "final loss {:?}", losses.last());
        for (ex, plen) in &examples {
            let out = lm.greedy(&ex[..*plen], 1, |_| false);
            assert_eq!(out[0], ex[*plen], "wrong continuation for {ex:?}");
        }
    }

    #[test]
    fn sequence_logprob_prefers_trained_continuation() {
        let mut lm = CausalLm::new(LmConfig::test(20));
        let examples: Vec<LmExample> = vec![(vec![1, 10, 11, 5, 2], 3)];
        let cfg = LmTrainConfig { lr: 5e-3, epochs: 100, batch: 1, warmup: 5, max_steps: None, seed: 2 };
        train_lm(&mut lm, &examples, &cfg);
        let good = lm.sequence_logprob(&[1, 10, 11], &[5]);
        let bad = lm.sequence_logprob(&[1, 10, 11], &[6]);
        assert!(good > bad, "trained continuation should win: {good} vs {bad}");
    }

    #[test]
    fn greedy_stops_on_predicate() {
        let lm = CausalLm::new(LmConfig::test(10));
        let out = lm.greedy(&[1, 2], 20, |t| t == lcrec_text::token::EOS || true);
        assert!(out.is_empty(), "stop-on-first predicate halts immediately");
    }

    #[test]
    fn max_steps_caps_training() {
        let mut lm = CausalLm::new(LmConfig::test(20));
        let examples: Vec<LmExample> = (0..32).map(|i| (vec![1, 4 + (i % 8), 5, 2], 2)).collect();
        let cfg = LmTrainConfig { lr: 1e-3, epochs: 50, batch: 4, warmup: 2, max_steps: Some(3), seed: 3 };
        let losses = train_lm(&mut lm, &examples, &cfg);
        assert_eq!(losses.len(), 1, "training must stop within the first epoch");
    }

    #[test]
    fn batched_prefill_is_bit_identical_to_sequential() {
        let lm = CausalLm::new(LmConfig::test(30));
        let seqs: [&[u32]; 4] = [&[1, 7, 3], &[2, 4, 9, 5, 6], &[8], &[]];
        // Sequential reference: each sequence through its own solo prefill.
        let mut solo: Vec<Vec<f32>> = Vec::new();
        let mut solo_caches: Vec<KvCache> = Vec::new();
        for s in seqs {
            let mut cache = lm.new_cache();
            solo.push(if s.is_empty() { Vec::new() } else { lm.prefill(&mut cache, s) });
            solo_caches.push(cache);
        }
        // Batched: ragged lengths in one lockstep pass.
        let mut caches: Vec<KvCache> = (0..seqs.len()).map(|_| lm.new_cache()).collect();
        let batched = lm.prefill_batch(&mut caches, &seqs);
        for ((a, b), (ca, cb)) in batched.iter().zip(&solo).zip(caches.iter().zip(&solo_caches)) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "logits must match bit for bit");
            }
            assert_eq!(ca.len(), cb.len(), "cache positions must agree");
        }
        // Continue decoding from the batched caches: still bit-identical.
        let next: Vec<u32> = vec![3, 1, 2];
        let mut slots: Vec<&mut KvCache> = caches.iter_mut().take(3).collect();
        let step = lm.advance_batch(&mut slots, &next);
        for (i, row) in step.iter().enumerate() {
            let reference = lm.advance(&mut solo_caches[i], next[i]);
            for (x, y) in row.iter().zip(&reference) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn advance_batch_with_empty_batch_is_a_no_op() {
        let lm = CausalLm::new(LmConfig::test(10));
        let mut slots: Vec<&mut KvCache> = Vec::new();
        assert!(lm.advance_batch(&mut slots, &[]).is_empty());
    }

    #[test]
    fn lane_bounds_cut_contiguous_groups_of_about_equal_rows() {
        let runs: Vec<Vec<u32>> = vec![vec![0]; 8];
        let seqs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        assert_eq!(lane_bounds(&seqs, 1), vec![0, 8]);
        assert_eq!(lane_bounds(&seqs, 2), vec![0, 4, 8]);
        assert_eq!(lane_bounds(&seqs, 3), vec![0, 3, 6, 8]);
        // Ragged runs balance rows, not slots, and no group is left
        // without rows: the empty run joins the group after it.
        let runs: Vec<Vec<u32>> = [30usize, 0, 2, 3, 25].iter().map(|&n| vec![0; n]).collect();
        let seqs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        assert_eq!(lane_bounds(&seqs, 2), vec![0, 1, 5]);
        assert_eq!(lane_bounds(&seqs, 4), vec![0, 1, 3, 5]);
        assert_eq!(lane_bounds(&seqs[..1], 4), vec![0, 1], "one slot is one lane");
    }

    #[test]
    fn dense_batch_order_is_a_length_sorted_permutation() {
        let lengths: Vec<usize> = (0..40).map(|i| (i * 7 + 3) % 11).collect();
        let mut rng = StdRng::seed_from_u64(42);
        let order = dense_batch_order(&lengths, &mut rng);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>(), "must be a permutation");
        for w in order.windows(2) {
            assert!(lengths[w[0]] <= lengths[w[1]], "lengths must be non-decreasing");
        }
    }

    #[test]
    fn dense_batch_order_shuffles_ties() {
        // All-equal lengths: the stable sort preserves the shuffle, so the
        // order must be a non-identity permutation (seeded, deterministic).
        let lengths = vec![5usize; 32];
        let mut rng = StdRng::seed_from_u64(7);
        let order = dense_batch_order(&lengths, &mut rng);
        assert_ne!(order, (0..32).collect::<Vec<_>>(), "ties must be shuffled");
        // Same seed → same order: the epoch ordering is reproducible.
        let mut rng2 = StdRng::seed_from_u64(7);
        assert_eq!(order, dense_batch_order(&lengths, &mut rng2));
    }

    #[test]
    fn num_params_counts_everything() {
        let lm = CausalLm::new(LmConfig::test(10));
        // tok 10*16 + pos 48*16 + block (norm 16*2 + 4*16*16 + gate/up 2*16*32 + down 32*16) + final 16
        let expect = 160 + 768 + (32 + 1024 + 1024 + 512) + 16;
        assert_eq!(lm.num_params(), expect);
    }
}
