//! The load generator and serving loop: one driver thread submits each
//! request when it is due, steps the router, publishes churn epochs, and
//! records when every request was sent, served and answered.

use crate::machine::now;
use crate::workload::{Catalog, Traffic, World, K};
use lcrec_rqvae::IndexTrie;
use lcrec_serve::{Router, RouterOutcome};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Longest the driver waits between router steps while it waits for an
/// arrival or for a partial batch to reach `max_wait_ms`. It spins rather
/// than sleeps: on a virtual machine a sleeping vCPU is handed back to
/// the host, and the time it takes to get it back would enter every
/// latency (sleeping raised the median by 2 to 8 ms on the 2-vCPU machine
/// this benchmark was defined on).
const POLL: Duration = Duration::from_micros(250);

/// How one request ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Resolved {
    /// Not yet resolved (an accounting error once the pass ends).
    Open,
    Rejected,
    TimedOut,
    Completed {
        /// When the router call that returned the answer began and ended.
        step_start_s: f64,
        done_s: f64,
        batch_size: usize,
        /// `(item, log-prob bits)`, best first.
        ranked: Vec<(u32, u32)>,
    },
}

/// What happened to one request. Times are seconds from the pass start.
#[derive(Clone, Debug)]
pub struct Rec {
    pub submit_s: f64,
    pub submit_us: f64,
    /// Catalog epoch the router served new admissions from at submit.
    pub epoch: u64,
    pub outcome: Resolved,
}

/// Timings of one churn publish.
#[derive(Clone, Debug, Default)]
pub struct PublishRec {
    pub insert_us: Vec<f64>,
    pub materialize_ms: f64,
    pub swap_ms: f64,
    /// Start of the first insert to the return of `swap_catalog`.
    pub total_ms: f64,
    /// Engine batch time (`serve.batch` spans) spent inside the swap call,
    /// which drains the previous snapshot; traced passes only.
    pub swap_batch_s: f64,
}

/// Everything one pass recorded.
#[derive(Debug)]
pub struct Pass<'w> {
    pub recs: Vec<Rec>,
    pub publishes: Vec<PublishRec>,
    /// Wall time of the router calls that returned answers: the serving
    /// loop's busy time.
    pub busy_s: f64,
    /// Catalog epoch → the trie new admissions were served from.
    pub tries: BTreeMap<u64, &'w IndexTrie>,
    /// Outcomes whose ticket was unknown or already resolved.
    pub stray_outcomes: usize,
    /// Failures of the catalog write path.
    pub errors: Vec<String>,
    /// Resident set (MB) of the process once the last request is answered,
    /// with the router and every snapshot it holds still alive.
    pub rss_mb: f64,
    /// Peak resident set (MB) of the process so far: set-up, warm-up and
    /// this pass.
    pub peak_rss_mb: f64,
}

fn serve_batch_s() -> f64 {
    lcrec_obs::snapshot()
        .spans
        .iter()
        .filter(|(path, _)| path.ends_with("serve.batch"))
        .map(|(_, s)| s.total_s())
        .sum()
}

/// Runs `traffic` through a fresh router over `catalog`. Published tries
/// are leaked: the router borrows each one for its whole life, which is
/// part of the memory cost churn measures.
pub fn run_pass<'w>(
    world: &'w World,
    catalog: &'w mut Catalog,
    traffic: &Traffic,
    traced: bool,
) -> Pass<'w> {
    let n = traffic.requests.len();
    let Catalog { trie, live } = catalog;
    let trie: &'w IndexTrie = trie;
    let mut router = Router::new(
        &world.lm,
        &world.vocab,
        trie,
        world.workload.router_config(n),
    );
    let mut pass = Pass {
        recs: Vec::with_capacity(n),
        publishes: Vec::new(),
        busy_s: 0.0,
        tries: BTreeMap::from([(router.catalog_epoch(), trie)]),
        stray_outcomes: 0,
        errors: Vec::new(),
        rss_mb: 0.0,
        peak_rss_mb: 0.0,
    };
    let mut tickets: BTreeMap<u64, usize> = BTreeMap::new();
    let t0 = now();
    let since = |t: Instant| t.duration_since(t0).as_secs_f64();
    let mut next_publish = 0usize;
    while pass.recs.len() < n || router.pending_len() > 0 {
        while let Some(req) = traffic.requests.get(pass.recs.len()) {
            if req.due_s > since(now()) {
                break;
            }
            let epoch = router.catalog_epoch();
            let a = now();
            let admitted = router.submit(req.user, &req.history, K);
            let b = now();
            let outcome = match admitted {
                Ok(ticket) => {
                    tickets.insert(ticket, pass.recs.len());
                    Resolved::Open
                }
                Err(_) => Resolved::Rejected,
            };
            pass.recs.push(Rec {
                submit_s: since(a),
                submit_us: (b - a).as_secs_f64() * 1e6,
                epoch,
                outcome,
            });
            while let Some(p) = traffic.publishes.get(next_publish) {
                if p.after != pass.recs.len() {
                    break;
                }
                next_publish += 1;
                let Some(live) = live.as_mut() else { break };
                let mut rec = PublishRec::default();
                let start = now();
                for item in p.items.clone() {
                    let a = now();
                    if let Err(e) = live.insert(world.vocab.indices().of(item), item) {
                        pass.errors
                            .push(format!("insert of item {item} failed: {e}"));
                    }
                    rec.insert_us.push(a.elapsed().as_secs_f64() * 1e6);
                }
                let a = now();
                let grown: &'w IndexTrie = Box::leak(Box::new(live.materialize()));
                rec.materialize_ms = a.elapsed().as_secs_f64() * 1e3;
                let before = if traced { serve_batch_s() } else { 0.0 };
                let a = now();
                let drained = router.swap_catalog(&world.lm, &world.vocab, grown, live.epoch());
                let b = now();
                rec.swap_ms = (b - a).as_secs_f64() * 1e3;
                rec.total_ms = (b - start).as_secs_f64() * 1e3;
                if traced {
                    rec.swap_batch_s = serve_batch_s() - before;
                }
                pass.tries.insert(live.epoch(), grown);
                pass.publishes.push(rec);
                for o in drained {
                    resolve(&mut pass, &mut tickets, o, since(a), since(b));
                }
            }
        }
        let a = now();
        let outcomes = router.step_outcomes();
        let b = now();
        if outcomes.is_empty() {
            let wait = match traffic.requests.get(pass.recs.len()) {
                Some(req) => Duration::from_secs_f64((req.due_s - since(b)).max(0.0)),
                None => POLL,
            };
            let until = b + wait.min(POLL);
            while now() < until {
                std::hint::spin_loop();
            }
            continue;
        }
        pass.busy_s += (b - a).as_secs_f64();
        for o in outcomes {
            resolve(&mut pass, &mut tickets, o, since(a), since(b));
        }
    }
    pass.rss_mb = crate::machine::status_mb("VmRSS");
    pass.peak_rss_mb = crate::machine::status_mb("VmHWM");
    pass
}

fn resolve(
    pass: &mut Pass<'_>,
    tickets: &mut BTreeMap<u64, usize>,
    o: RouterOutcome,
    start_s: f64,
    done_s: f64,
) {
    let Some(rec) = tickets.remove(&o.id()).and_then(|i| pass.recs.get_mut(i)) else {
        pass.stray_outcomes += 1;
        return;
    };
    rec.outcome = match o {
        RouterOutcome::Completed { response, .. } => Resolved::Completed {
            step_start_s: start_s,
            done_s,
            batch_size: response.batch_size,
            ranked: response
                .ranked
                .iter()
                .map(|h| (h.item, h.logprob.to_bits()))
                .collect(),
        },
        RouterOutcome::TimedOut { .. } => Resolved::TimedOut,
    };
}
