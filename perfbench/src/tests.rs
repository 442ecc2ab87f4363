//! The benchmark's own tests: traffic determinism, the correctness gate,
//! smoke sizes of every workload and the workload record in
//! `BENCHMARK.json`.

use crate::drive::{run_pass, Resolved};
use crate::gate::{check_ranking, recheck, sample};
use crate::workload::{
    traffic, Workload, World, OFFLINE_REQUESTS_PER_S, OPEN_RATE_RPS, PUBLISH_EVERY,
};
use crate::{layers, machine, parse_args, run, END_TO_END};
use std::sync::Mutex;

/// Serving tests share the process-wide `lcrec-obs` registry, which a
/// traced run switches on; they take this lock so none records into
/// another's trace.
static SERVING: Mutex<()> = Mutex::new(());

fn serving() -> std::sync::MutexGuard<'static, ()> {
    SERVING.lock().unwrap_or_else(|p| p.into_inner())
}

/// A canonical byte encoding of everything a run sends.
fn traffic_bytes(w: Workload, seed: u64) -> Vec<u8> {
    let t = traffic(w, seed, 2.0);
    let mut out = Vec::new();
    for r in &t.requests {
        out.extend(r.user.to_le_bytes());
        out.extend(r.due_s.to_bits().to_le_bytes());
        out.extend((r.history.len() as u64).to_le_bytes());
        for item in &r.history {
            out.extend(item.to_le_bytes());
        }
    }
    for p in &t.publishes {
        out.extend((p.after as u64).to_le_bytes());
        out.extend(p.items.start.to_le_bytes());
        out.extend(p.items.end.to_le_bytes());
    }
    out
}

#[test]
fn same_seed_same_traffic_other_seed_other_traffic() {
    for w in Workload::ALL {
        let a = traffic_bytes(w, 11);
        assert_eq!(
            a,
            traffic_bytes(w, 11),
            "{}: same seed, same bytes",
            w.name()
        );
        assert_ne!(
            a,
            traffic_bytes(w, 12),
            "{}: another seed, other bytes",
            w.name()
        );
    }
}

#[test]
fn traffic_shape_matches_the_workload() {
    let open = traffic(Workload::MediumOpen, 3, 4.0);
    let n = (OPEN_RATE_RPS * 4.0) as usize;
    assert_eq!(open.requests.len(), n);
    assert!(open.requests.windows(2).all(|p| p[0].due_s <= p[1].due_s));
    assert!(open.requests.iter().all(|r| (0.0..4.0).contains(&r.due_s)));
    assert!(open.publishes.is_empty());

    let offline = traffic(Workload::LargeOffline, 3, 4.0);
    assert_eq!(
        offline.requests.len(),
        (OFFLINE_REQUESTS_PER_S * 4.0) as usize
    );
    assert!(offline.requests.iter().all(|r| r.due_s == 0.0));

    // Churn sends medium-open's users at medium-open's times, and a
    // request never names an item that is not yet published.
    let churn = traffic(Workload::MediumChurn, 3, 4.0);
    assert_eq!(churn.publishes.len(), n / PUBLISH_EVERY);
    let initial = Workload::MediumChurn.initial_items() as u32;
    for (i, (c, o)) in churn.requests.iter().zip(&open.requests).enumerate() {
        assert_eq!((c.user, c.due_s), (o.user, o.due_s));
        let published = churn
            .publishes
            .iter()
            .filter(|p| p.after <= i)
            .map(|p| p.items.end)
            .max()
            .unwrap_or(initial);
        assert!(
            c.history.iter().all(|&item| item < published),
            "request {i} names an unpublished item"
        );
    }
}

#[test]
fn corrupted_answer_fails_the_gate() {
    let _guard = serving();
    let world = World::build(Workload::MediumChurn);
    let t = traffic(Workload::MediumChurn, 5, 0.5);
    let mut catalog = world.catalog();
    let mut pass = run_pass(&world, &mut catalog, &t, false);
    assert!(
        pass.tries.len() > 1,
        "the sample spans several catalog epochs"
    );
    recheck(&world, &pass.tries, &sample(&pass, &t, 8)).expect("honest answers pass");

    let Some(Resolved::Completed { ranked, .. }) = pass.recs.last_mut().map(|r| &mut r.outcome)
    else {
        panic!("the last request completed");
    };
    ranked[0].1 ^= 1;
    let err = recheck(&world, &pass.tries, &sample(&pass, &t, pass.recs.len()))
        .expect_err("a flipped log-prob bit fails the gate");
    assert!(err.contains("differs"), "{err}");
    assert!(
        check_ranking(&[], &[(0, 0)]).is_err(),
        "a missing item fails too"
    );
}

#[test]
fn every_workload_has_a_seconds_long_smoke_size() {
    let _guard = serving();
    for w in Workload::ALL {
        for trace in [false, true] {
            let argv: Vec<String> = [
                "--workload",
                w.name(),
                "--seed",
                "1",
                "--seconds",
                "0.5",
                "--trace",
                if trace { "1" } else { "0" },
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let result = run(&parse_args(&argv).expect("valid arguments"));
            assert!(
                result.correct,
                "{} trace={trace}: {}",
                w.name(),
                result.report
            );
            assert_eq!(result.failed, 0);
            let expected: Vec<&str> = if trace {
                layers::PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            assert_eq!(
                result.metrics.iter().map(|m| m.0).collect::<Vec<_>>(),
                expected
            );
            assert!(result
                .line()
                .starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn arguments_and_environment_are_checked() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
    assert!(parse_args(&argv(
        "--workload medium-open --seed 1 --seconds 0 --trace 0"
    ))
    .is_err());
    assert!(parse_args(&argv(
        "--workload medium-open --seed 1 --seconds 1 --trace 2"
    ))
    .is_err());
    assert!(parse_args(&argv(
        "--workload medium-open --seed 1 --seconds 1 --trace 1"
    ))
    .is_ok());
    let vars = [
        "PATH",
        "LCREC_THREADS",
        "LCREC_OBS",
        "LCREC_FAULT_SEED",
        "LCREC_SERVE_BATCH",
        "LCREC_SHARDS",
    ];
    assert_eq!(
        machine::pinned_violations(vars.iter().map(|s| s.to_string())),
        [
            "LCREC_OBS",
            "LCREC_FAULT_SEED",
            "LCREC_SERVE_BATCH",
            "LCREC_SHARDS"
        ]
    );
}

/// The `"name"` values listed under `key` in `BENCHMARK.json`, which
/// keeps one entry per line.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let end = section.find(']').expect("a list");
    section[..end]
        .lines()
        .filter_map(|l| l.split("\"name\": \"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .map(String::from)
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = names_under(&json, "workloads");
    assert_eq!(workloads, Workload::ALL.map(|w| w.name()));
    for w in Workload::ALL {
        let line = json
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{}\"", w.name())))
            .expect("listed");
        let why = line
            .split("\"why\": \"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .unwrap_or("");
        assert!(why.len() > 20, "{} records why it was chosen", w.name());
    }
    assert_eq!(
        names_under(&json, "end_to_end"),
        END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
    );
    assert_eq!(
        names_under(&json, "per_layer"),
        layers::PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
    );
}
