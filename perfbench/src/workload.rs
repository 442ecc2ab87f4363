//! The three workloads: their fixed shape, the seeded traffic each one
//! sends, and the model and catalog each one serves.

use lcrec_core::{CatalogTrie, CausalLm, ExtendedVocab, LmConfig};
use lcrec_data::{ScaleConfig, ZipfSampler};
use lcrec_rqvae::{IndexTrie, ItemIndices};
use lcrec_serve::{RouterConfig, ServeConfig};
use lcrec_text::Vocab;

/// Items requested per recommendation.
pub const K: usize = 5;
/// Offered rate of the open-loop workloads, fixed once. At this rate most
/// batches hold one request, and a batch of one takes 12 to 16 ms on the
/// 2-vCPU machine this benchmark was defined on, so the serving thread is
/// busy about a tenth of the time and few requests queue behind another
/// shard's batch. Latency then follows that machine's speed changes about
/// proportionally instead of amplifying them: at 40 req/s (busy half the
/// time) the same seed read 28 ms and 47 ms at p50 minutes apart, and at
/// 12 req/s p90 still moved more than one and a half times as much as
/// p50. It is never
/// recalibrated, so a faster program shows up as lower latency rather
/// than as a higher rate.
pub const OPEN_RATE_RPS: f64 = 8.0;
/// Offline requests queued per `--seconds`: about the large tier's
/// throughput when the benchmark was defined, so a drain takes roughly
/// the requested time.
pub const OFFLINE_REQUESTS_PER_S: f64 = 15.0;
/// Churn: items published per epoch, and arrivals between publishes.
/// Every fourth arrival at [`OPEN_RATE_RPS`] is two publishes a second,
/// so a 30-second run makes 60 of them.
pub const PUBLISH_ITEMS: usize = 25;
pub const PUBLISH_EVERY: usize = 4;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Large tier, every request queued up front and drained.
    LargeOffline,
    /// Medium tier, Poisson arrivals at [`OPEN_RATE_RPS`].
    MediumOpen,
    /// `MediumOpen`'s traffic over a catalog that starts at 80% and grows
    /// by [`PUBLISH_ITEMS`] every [`PUBLISH_EVERY`] arrivals.
    MediumChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LargeOffline,
        Workload::MediumOpen,
        Workload::MediumChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeOffline => "large-offline",
            Workload::MediumOpen => "medium-open",
            Workload::MediumChurn => "medium-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn open_loop(self) -> bool {
        self != Workload::LargeOffline
    }

    pub fn churn(self) -> bool {
        self == Workload::MediumChurn
    }

    /// The tier's catalog and population. Its preset seed fixes every
    /// user's history; [`traffic`] re-seeds only the arrival sequence.
    pub fn tier(self) -> ScaleConfig {
        match self {
            Workload::LargeOffline => ScaleConfig::tier_large(),
            Workload::MediumOpen | Workload::MediumChurn => ScaleConfig::tier_medium(),
        }
    }

    /// The tier's LM: `LmConfig::large` (5.24M parameters) or the medium
    /// shape (534k parameters) of the repository's scale experiments.
    pub fn lm_config(self, vocab: usize) -> LmConfig {
        let large = LmConfig::large(vocab);
        match self {
            Workload::LargeOffline => large,
            Workload::MediumOpen | Workload::MediumChurn => LmConfig {
                dim: 128,
                layers: 3,
                heads: 8,
                ff_hidden: 256,
                max_seq: 128,
                ..large
            },
        }
    }

    /// Requests sent in a run of `seconds` seconds.
    pub fn requests(self, seconds: f64) -> usize {
        let per_s = if self.open_loop() {
            OPEN_RATE_RPS
        } else {
            OFFLINE_REQUESTS_PER_S
        };
        ((per_s * seconds).round() as usize).max(1)
    }

    /// Items served before the first publish.
    pub fn initial_items(self) -> usize {
        let n = self.tier().num_items;
        if self.churn() {
            n * 4 / 5
        } else {
            n
        }
    }

    /// `RouterConfig::default()` (2 shards, `max_batch` 8, `max_wait_ms`
    /// 5, beam 10) with deadlines off and every shard's queue large enough
    /// to hold the whole run, so no request is refused for capacity.
    pub fn router_config(self, requests: usize) -> RouterConfig {
        let cfg = RouterConfig::default();
        RouterConfig {
            shard: ServeConfig {
                queue_cap: requests.max(1),
                deadline_ms: None,
                ..cfg.shard
            },
            ..cfg
        }
    }
}

/// One request as the load generator sends it.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub user: u64,
    /// The user's history, restricted to items already published when the
    /// request is sent.
    pub history: Vec<u32>,
    /// Seconds after the start of the run at which the request is due.
    pub due_s: f64,
}

/// One churn epoch: after `after` arrivals have been sent, the items
/// `items` are inserted, the trie materialized and swapped in.
#[derive(Clone, Debug, PartialEq)]
pub struct Publish {
    pub after: usize,
    pub items: std::ops::Range<u32>,
}

/// Everything a run sends, as a pure function of workload, seed and
/// length.
#[derive(Clone, Debug, PartialEq)]
pub struct Traffic {
    pub requests: Vec<Request>,
    pub publishes: Vec<Publish>,
}

/// SplitMix64: the benchmark's own seeded generator, so its arrival
/// schedule does not move when a library's RNG changes.
#[derive(Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals with exactly `n` requests in `[0, seconds)`: seeded
/// exponential gaps, rescaled so that the `n + 1`-th arrival would fall
/// at `seconds`. This is a Poisson process conditioned on its count, so
/// every run offers the same number of requests over the same window.
fn arrivals(seed: u64, n: usize, seconds: f64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed ^ 0xA5A5_5A5A_C3C3_3C3C);
    let mut at = Vec::with_capacity(n);
    let mut sum = 0.0f64;
    for _ in 0..n {
        sum += -(1.0 - rng.next_f64()).ln();
        at.push(sum);
    }
    sum += -(1.0 - rng.next_f64()).ln();
    at.iter().map(|t| seconds * t / sum).collect()
}

/// The traffic of one run. The population (each user's history) is the
/// tier preset's; the seed picks which users arrive, in which order and
/// when, so runs with different seeds sample one population.
pub fn traffic(w: Workload, seed: u64, seconds: f64) -> Traffic {
    let n = w.requests(seconds);
    let cfg = w.tier();
    let popularity =
        ZipfSampler::new(cfg.num_items, cfg.zipf_exponent).expect("tier presets validate");
    let replay = ScaleConfig {
        seed: SplitMix::new(seed).next_u64(),
        ..cfg.clone()
    };
    let users: Vec<usize> = replay
        .replay()
        .expect("tier presets validate")
        .take(n)
        .collect();
    let due = if w.open_loop() {
        arrivals(seed, n, seconds)
    } else {
        vec![0.0; n]
    };
    let mut publishes = Vec::new();
    if w.churn() {
        let mut next = w.initial_items();
        let mut after = PUBLISH_EVERY;
        while after <= n && next < cfg.num_items {
            let end = (next + PUBLISH_ITEMS).min(cfg.num_items);
            publishes.push(Publish {
                after,
                items: next as u32..end as u32,
            });
            next = end;
            after += PUBLISH_EVERY;
        }
    }
    let mut published = w.initial_items();
    let mut epoch = 0usize;
    let requests = users
        .into_iter()
        .zip(due)
        .enumerate()
        .map(|(i, (user, due_s))| {
            while publishes.get(epoch).is_some_and(|p| p.after <= i) {
                published = publishes[epoch].items.end as usize;
                epoch += 1;
            }
            let mut history = cfg.generate_user(&popularity, user);
            history.retain(|&item| (item as usize) < published);
            Request {
                user: user as u64,
                history,
                due_s,
            }
        })
        .collect();
    Traffic {
        requests,
        publishes,
    }
}

/// The warm-up every run of a workload serves before timing starts,
/// whatever its seed: the `n` heaviest users, all due at once. Its full
/// batches grow the heap to the size the timed pass needs, and since it
/// is the same for every seed, the heap the pass starts from is too.
pub fn warmup(w: Workload, n: usize) -> Traffic {
    let cfg = w.tier();
    let popularity =
        ZipfSampler::new(cfg.num_items, cfg.zipf_exponent).expect("tier presets validate");
    let requests = (0..n)
        .map(|user| {
            let mut history = cfg.generate_user(&popularity, user);
            history.retain(|&item| (item as usize) < w.initial_items());
            Request {
                user: user as u64,
                history,
                due_s: 0.0,
            }
        })
        .collect();
    Traffic {
        requests,
        publishes: Vec::new(),
    }
}

impl Traffic {
    /// Share of requests whose history equals an earlier request's.
    pub fn repeat_frac(&self) -> f64 {
        let mut seen = std::collections::BTreeSet::new();
        let repeats = self
            .requests
            .iter()
            .filter(|r| !seen.insert(&r.history))
            .count();
        repeats as f64 / self.requests.len().max(1) as f64
    }
}

/// The model a workload serves: LM and vocabulary over the full catalog.
/// Item ids are popularity ranks and item `i`'s code is `i` in base `K`
/// (`ScaleConfig::synthetic_codes`), so the catalog at any churn epoch
/// is the id prefix `0..n`.
#[derive(Debug)]
pub struct World {
    pub workload: Workload,
    pub lm: CausalLm,
    pub vocab: ExtendedVocab,
}

/// The catalog one pass starts from: the trie the router is built over,
/// plus the copy-on-write trie that churn grows.
#[derive(Debug)]
pub struct Catalog {
    pub trie: IndexTrie,
    pub live: Option<CatalogTrie>,
}

impl World {
    pub fn build(workload: Workload) -> World {
        let (sizes, codes) = workload
            .tier()
            .synthetic_codes()
            .expect("tier presets validate");
        let base = Vocab::build([ServeConfig::default().template.as_str()], 1);
        let vocab = ExtendedVocab::new(base, ItemIndices::new(sizes, codes));
        let lm = CausalLm::new(workload.lm_config(vocab.len()));
        World {
            workload,
            lm,
            vocab,
        }
    }

    /// The catalog of the first `items` item ids.
    pub fn indices_prefix(&self, items: usize) -> ItemIndices {
        let all = self.vocab.indices();
        ItemIndices::new(all.codebook_sizes.clone(), all.codes[..items].to_vec())
    }

    pub fn catalog(&self) -> Catalog {
        if self.workload.churn() {
            let live =
                CatalogTrie::from_indices(&self.indices_prefix(self.workload.initial_items()))
                    .expect("synthetic codes are unique");
            Catalog {
                trie: live.materialize(),
                live: Some(live),
            }
        } else {
            Catalog {
                trie: IndexTrie::build(self.vocab.indices()),
                live: None,
            }
        }
    }
}
