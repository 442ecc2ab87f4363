//! Serving benchmark for the LC-Rec workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one workload's model and catalog, drives seeded traffic through
//! `lcrec_serve::Router` from a single driver thread, re-checks a sample
//! of the answers, and prints a report line followed by one JSON result
//! as the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! serves the same traffic twice, untraced and then with `lcrec-obs`
//! enabled, so it can report what tracing costs.

mod drive;
mod gate;
mod layers;
mod machine;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use drive::{run_pass, Pass};
use lcrec_serve::Router;
use machine::now;
use stats::{json_num, json_str, median, percentile};
use workload::{Traffic, Workload, World};

const USAGE: &str =
    "usage: perfbench --workload <large-offline|medium-open|medium-churn> --seed <n> --seconds <s> --trace <0|1>";

/// `(name, unit)` of every end-to-end metric, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Set-up (model, catalog and router construction) is repeated this many
/// times and reported as the median: half of the repetitions before the
/// timed pass and the rest after it, so the figure does not rest on how
/// fast the machine happened to be in one moment.
const SETUP_REPS: usize = 61;
/// Requests decoded through a throwaway router before timing starts: two
/// full batches.
const WARMUP_REQUESTS: usize = 16;
/// Every `REBUILD_EVERY`-th published trie is compared with a rebuild.
const REBUILD_EVERY: usize = 10;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A finished run: the result line's fields plus the report.
#[derive(Debug)]
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    report: String,
}

impl RunResult {
    fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks one pass: accounting, the re-decode sample and the published
/// tries. Returns the failures found and the rebuild times.
fn check(
    world: &World,
    pass: &Pass<'_>,
    traffic: &Traffic,
) -> (Vec<String>, gate::Accounting, Vec<f64>) {
    let mut errors = pass.errors.clone();
    let acc = gate::account(pass, traffic).unwrap_or_else(|e| {
        errors.push(e);
        gate::Accounting::default()
    });
    let size = if world.workload.open_loop() { 32 } else { 8 };
    if let Err(e) = gate::recheck(world, &pass.tries, &gate::sample(pass, traffic, size)) {
        errors.push(e);
    }
    let rebuild_ms = gate::rebuild_check(world, pass, REBUILD_EVERY).unwrap_or_else(|e| {
        errors.push(e);
        Vec::new()
    });
    (errors, acc, rebuild_ms)
}

/// Builds a workload's model, catalog and router once; returns the
/// seconds it took and the model.
fn set_up(w: Workload, n: usize) -> (f64, World) {
    let a = now();
    let built = World::build(w);
    let catalog = built.catalog();
    drop(Router::new(
        &built.lm,
        &built.vocab,
        &catalog.trie,
        w.router_config(n),
    ));
    (a.elapsed().as_secs_f64(), built)
}

fn run(args: &Args) -> RunResult {
    let w = args.workload;
    let n = w.requests(args.seconds);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut world = None;
    for _ in 0..SETUP_REPS / 2 + 1 {
        drop(world.take());
        let (s, built) = set_up(w, n);
        setup_s.push(s);
        world = Some(built);
    }
    let world = world.expect("at least one set-up runs before the pass");

    let warmup = workload::warmup(w, WARMUP_REQUESTS);
    drop(run_pass(&world, &mut world.catalog(), &warmup, false));

    // Generated after the set-up and the warm-up, so that the heap they
    // leave behind does not depend on the seed.
    let traffic = workload::traffic(w, args.seed, args.seconds);

    let mut catalog = world.catalog();
    let untraced = run_pass(&world, &mut catalog, &traffic, false);
    let (mut errors, mut acc, rebuild_ms) = check(&world, &untraced, &traffic);
    while setup_s.len() < SETUP_REPS {
        setup_s.push(set_up(w, n).0);
    }
    let mut report = vec![
        format!("\"workload\": {}", json_str(w.name())),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", json_num(args.seconds)),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"environment\": {}", machine::environment()),
        format!(
            "\"setup_reps_s\": [{}]",
            setup_s
                .iter()
                .map(|&s| json_num(s))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ];

    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        let cal = layers::Calibration::measure();
        let mut catalog = world.catalog();
        lcrec_obs::reset();
        lcrec_obs::set_enabled(true);
        let traced = run_pass(&world, &mut catalog, &traffic, true);
        let snap = lcrec_obs::snapshot();
        lcrec_obs::set_enabled(false);
        let (traced_errors, traced_acc, traced_rebuild_ms) = check(&world, &traced, &traffic);
        errors.extend(traced_errors);
        acc = traced_acc;
        let rebuild_ms = [rebuild_ms, traced_rebuild_ms].concat();
        let values = layers::per_layer(
            &world,
            &traffic,
            &traced,
            &snap,
            untraced.busy_s,
            &rebuild_ms,
            &cal,
        );
        let reconciliation = layers::Reconciliation::of(&traced, &snap);
        report.push(format!("\"reconciliation\": {}", reconciliation.to_json()));
        let unattributed = reconciliation.unattributed_frac();
        if unattributed.abs() > layers::RECONCILE_TOLERANCE {
            errors.push(format!(
                "busy time does not reconcile: {:.2}% falls outside engine batch spans (tolerance {:.0}%)",
                unattributed * 100.0,
                layers::RECONCILE_TOLERANCE * 100.0
            ));
        }
        report.push(format!("\"obs\": {}", snap.to_json().replace('\n', " ")));
        let not_applicable: Vec<String> = layers::not_applicable(w)
            .iter()
            .map(|m| json_str(m))
            .collect();
        report.push(format!(
            "\"not_applicable\": [{}]",
            not_applicable.join(", ")
        ));
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map_or(f64::NAN, |&(_, v)| v);
                (name, v, unit)
            })
            .collect()
    } else {
        let lat = layers::latencies_ms(&untraced, &traffic);
        let first_due = traffic.requests.first().map_or(0.0, |r| r.due_s);
        let last_done = untraced
            .recs
            .iter()
            .filter_map(|r| match r.outcome {
                drive::Resolved::Completed { done_s, .. } => Some(done_s),
                _ => None,
            })
            .fold(0.0, f64::max);
        let values = [
            median(&setup_s),
            lat.len() as f64 / (last_done - first_due),
            median(&lat),
            percentile(&lat, 0.9),
            untraced.peak_rss_mb,
        ];
        let mut extra: Vec<(&str, f64)> = layers::pass_metrics(&untraced, &traffic);
        extra.extend([
            ("latency_samples", lat.len() as f64),
            ("latency_p95_ms", percentile(&lat, 0.95)),
            ("latency_p99_ms", percentile(&lat, 0.99)),
            ("rss_mb", untraced.rss_mb),
        ]);
        let extra: Vec<String> = extra
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        report.push(format!("\"other\": {{{}}}", extra.join(", ")));
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        errors.push(format!("metric {name} is not a finite number"));
    }
    report.push(format!(
        "\"accounting\": {{\"sent\": {}, \"completed\": {}, \"rejected\": {}, \"timed_out\": {}}}",
        acc.sent, acc.completed, acc.rejected, acc.timed_out
    ));
    report.push(format!(
        "\"errors\": [{}]",
        errors
            .iter()
            .map(|e| json_str(e))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    RunResult {
        correct: errors.is_empty(),
        attempted: acc.sent.max(1),
        failed: acc.failed(),
        metrics,
        report: format!("{{\"report\": {{{}}}}}", report.join(", ")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let pinned = machine::pinned_violations(
        std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()), // lint: allow(det, reason = "only checks that no variable that changes the program under test is set")
    );
    if !pinned.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each changes the program under test; unset them",
            pinned.join(", ")
        );
        std::process::exit(2);
    }
    let result = run(&args);
    for e in result.report.lines() {
        println!("{e}");
    }
    println!("{}", result.line());
}
