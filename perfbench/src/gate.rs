//! The correctness gate, run outside the timed window: a fixed sample of
//! answers is decoded again, one request at a time, against the catalog
//! epoch each request was admitted under; every ticket must have resolved
//! exactly once; and every published trie must equal a full rebuild.

use crate::drive::{Pass, Resolved};
use crate::machine::now;
use crate::workload::{Traffic, World, K};
use lcrec_core::Hypothesis;
use lcrec_rqvae::IndexTrie;
use lcrec_serve::{Engine, ServeConfig};
use std::collections::BTreeMap;

/// One answer to check: what was asked, under which epoch, and what the
/// router answered.
#[derive(Debug)]
pub struct Sample<'a> {
    pub history: &'a [u32],
    pub epoch: u64,
    pub ranked: &'a [(u32, u32)],
}

/// Items and log-prob bits must match exactly, in order.
pub fn check_ranking(want: &[Hypothesis], got: &[(u32, u32)]) -> Result<(), String> {
    let want: Vec<(u32, u32)> = want.iter().map(|h| (h.item, h.logprob.to_bits())).collect();
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "answer {got:?} differs from the max_batch = 1 decode {want:?}"
        ))
    }
}

/// Decodes every sample again through a `max_batch = 1` engine over the
/// trie of its epoch and compares bit for bit.
pub fn recheck(
    world: &World,
    tries: &BTreeMap<u64, &IndexTrie>,
    samples: &[Sample<'_>],
) -> Result<(), String> {
    let mut by_epoch: BTreeMap<u64, Vec<&Sample<'_>>> = BTreeMap::new();
    for s in samples {
        by_epoch.entry(s.epoch).or_default().push(s);
    }
    for (epoch, group) in by_epoch {
        let trie = tries
            .get(&epoch)
            .ok_or(format!("no trie kept for catalog epoch {epoch}"))?;
        let cfg = ServeConfig {
            max_batch: 1,
            queue_cap: group.len(),
            ..ServeConfig::default()
        };
        let mut engine = Engine::new(&world.lm, &world.vocab, trie, cfg);
        for s in &group {
            engine
                .submit(s.history, K)
                .map_err(|e| format!("re-decode refused: {e}"))?;
        }
        let answers = engine.flush();
        if answers.len() != group.len() {
            return Err(format!(
                "re-decode answered {} of {}",
                answers.len(),
                group.len()
            ));
        }
        for (s, r) in group.iter().zip(&answers) {
            check_ranking(&r.ranked, s.ranked).map_err(|e| format!("epoch {epoch}: {e}"))?;
        }
    }
    Ok(())
}

/// Request counts of one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    pub sent: usize,
    pub completed: usize,
    pub rejected: usize,
    pub timed_out: usize,
}

impl Accounting {
    pub fn failed(&self) -> usize {
        self.rejected + self.timed_out
    }
}

/// Counts outcomes; an error when a ticket never resolved, resolved twice
/// or resolved to an unknown ticket.
pub fn account(pass: &Pass<'_>, traffic: &Traffic) -> Result<Accounting, String> {
    let mut acc = Accounting {
        sent: pass.recs.len(),
        ..Accounting::default()
    };
    for r in &pass.recs {
        match r.outcome {
            Resolved::Open => return Err("a ticket never resolved".to_string()),
            Resolved::Rejected => acc.rejected += 1,
            Resolved::TimedOut => acc.timed_out += 1,
            Resolved::Completed { .. } => acc.completed += 1,
        }
    }
    if pass.stray_outcomes > 0 {
        return Err(format!(
            "{} outcomes for unknown or already resolved tickets",
            pass.stray_outcomes
        ));
    }
    if acc.sent != traffic.requests.len() || acc.sent != acc.completed + acc.failed() {
        return Err(format!(
            "sent {} of {} requests: {acc:?}",
            acc.sent,
            traffic.requests.len()
        ));
    }
    Ok(acc)
}

/// Completed answers to re-decode: every `stride`-th request, so the
/// sample spans the whole run and every churn phase.
pub fn sample<'a>(pass: &'a Pass<'_>, traffic: &'a Traffic, size: usize) -> Vec<Sample<'a>> {
    let stride = (pass.recs.len() / size.max(1)).max(1);
    pass.recs
        .iter()
        .zip(&traffic.requests)
        .step_by(stride)
        .filter_map(|(rec, req)| match &rec.outcome {
            Resolved::Completed { ranked, .. } => Some(Sample {
                history: &req.history,
                epoch: rec.epoch,
                ranked,
            }),
            _ => None,
        })
        .collect()
}

/// Every `every`-th published trie (and the last) must equal
/// `IndexTrie::build` over the same id prefix; returns the build times in
/// milliseconds, the reference for `catalog.materialize_ms`.
pub fn rebuild_check(world: &World, pass: &Pass<'_>, every: usize) -> Result<Vec<f64>, String> {
    let first = world.workload.initial_items() as u64;
    let last = pass.tries.keys().next_back().copied().unwrap_or(0);
    let mut times = Vec::new();
    for (i, (&epoch, trie)) in pass.tries.iter().enumerate().skip(1) {
        if i % every != 0 && epoch != last {
            continue;
        }
        let indices = world.indices_prefix((first + epoch) as usize);
        let a = now();
        let rebuilt = IndexTrie::build(&indices);
        times.push(a.elapsed().as_secs_f64() * 1e3);
        if rebuilt != **trie {
            return Err(format!(
                "published trie at epoch {epoch} differs from a full rebuild"
            ));
        }
    }
    Ok(times)
}
