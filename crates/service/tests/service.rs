//! Service-level equivalence tests: every report the service hands out
//! must be byte-identical to the report of an uninterrupted standalone
//! [`Study::run`] of the same config — across fault profiles, actor
//! rosters, and any number of budget-forced evictions.

use netsim::time::Duration;
use service::{ServiceConfig, StudyService};
use std::sync::Arc;
use timetoscan::{ActorRoster, FaultProfile, SetKind, Study, StudyConfig};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("service-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ticks until every submitted study completes. Each tick advances at
/// least one resident study by one slice, so a scheduler still busy
/// after 10 000 ticks has stopped converging.
fn run_to_completion(svc: &mut StudyService) {
    for _ in 0..10_000 {
        if svc.idle() {
            return;
        }
        svc.tick().expect("tick");
    }
    panic!("scheduler failed to converge within 10 000 ticks");
}

/// The study matrix: one world (seed 31), varied fault profile and
/// actor roster — the shape a research group actually submits.
fn matrix() -> Vec<StudyConfig> {
    vec![
        StudyConfig::tiny(31),
        StudyConfig::tiny(31).with_actors(ActorRoster::ALL),
        StudyConfig::tiny(31).with_fault(FaultProfile::Lossy1Pct),
        StudyConfig::tiny(31).with_fault(FaultProfile::Congested),
    ]
}

#[test]
fn concurrent_studies_over_one_world_match_standalone() {
    let configs = matrix();
    let baselines: Vec<Study> = configs.iter().map(|c| Study::run(c.clone())).collect();

    let dir = temp_dir("concurrent");
    let mut svc =
        StudyService::new(ServiceConfig::unbounded(&dir, Duration::hours(36))).expect("service");
    let ids: Vec<_> = configs.iter().map(|c| svc.submit(c.clone())).collect();
    run_to_completion(&mut svc);
    assert!(svc.idle());
    let q = svc.queries();

    // Byte-identical canonical reports for every study in the matrix.
    for (id, baseline) in ids.iter().zip(&baselines) {
        let expected = baseline.run_report().to_json();
        assert_eq!(svc.report_json(*id).as_deref(), Some(expected.as_str()));
        assert_eq!(q.report(*id), Some(baseline.run_report()));
    }

    // One world config means exactly one generated snapshot; the other
    // three admissions shared it.
    let report = svc.run_report();
    assert_eq!(report.metrics.counter_total("service_world_builds"), 1);
    assert_eq!(report.metrics.counter_total("service_world_shares"), 3);
    assert_eq!(report.metrics.counter_total("service_admissions"), 4);
    assert_eq!(report.metrics.counter_total("service_completions"), 4);
    assert_eq!(report.metrics.counter_total("service_evictions"), 0);

    // World-determined sets (Rl + both hitlist kinds) are pure
    // functions of the shared world, so identical sets converge on one
    // segment in the pool: freezing 4 studies × 4 kinds dedups at least
    // 3 kinds × 3 later studies, and one world's set has one resident
    // copy whichever study it is asked through.
    assert!(svc.segment_stats().freeze_dedups >= 9);
    let rl = |id| q.set(id, SetKind::Rl).expect("io").expect("completed");
    assert!(Arc::ptr_eq(&rl(ids[0]), &rl(ids[1])));

    // Served sets match what the standalone studies derive.
    for (id, baseline) in ids.iter().zip(&baselines) {
        let derived = baseline.derived();
        for kind in SetKind::ALL {
            let served = q.set(*id, kind).expect("segment io").expect("completed");
            assert_eq!(served.len(), derived.compact_set(kind).len());
        }
    }

    // Overlap queries match a direct computation, and the repeat query
    // is a memoized hit.
    let expected_overlap = baselines[0]
        .derived()
        .compact_set(SetKind::Ours)
        .overlap_count(baselines[2].derived().compact_set(SetKind::Ours))
        as u64;
    assert_eq!(
        q.overlap(ids[0], ids[2], SetKind::Ours).expect("io"),
        Some(expected_overlap)
    );
    let hits_before = svc.run_report().metrics.counter_total("service_cache_hits");
    assert_eq!(
        q.overlap(ids[2], ids[0], SetKind::Ours).expect("io"),
        Some(expected_overlap)
    );
    let hits_after = svc.run_report().metrics.counter_total("service_cache_hits");
    assert_eq!(hits_after, hits_before + 1);

    // Steady state: every repeated query is answered from the report
    // table, the resident segments or the overlap memo. A serving layer
    // that re-derived per query would sit near a zero hit rate.
    for _ in 0..20 {
        for (i, &a) in ids.iter().enumerate() {
            svc.report_json(a).expect("completed");
            for kind in SetKind::ALL {
                q.set(a, kind).expect("io").expect("completed");
            }
            for &b in &ids[i + 1..] {
                q.overlap(a, b, SetKind::Ours)
                    .expect("io")
                    .expect("completed");
            }
        }
    }
    let metrics = svc.run_report().metrics;
    let hits = metrics.counter_total("service_cache_hits");
    let queries = hits + metrics.counter_total("service_cache_misses");
    assert!(
        hits as f64 / queries as f64 > 0.9,
        "cache hit rate {hits}/{queries}: the serving layer is not memoizing"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tight_budget_evicts_and_restores_bit_identically() {
    let configs = matrix();
    let baselines: Vec<String> = configs
        .iter()
        .map(|c| Study::run(c.clone()).run_report().to_json())
        .collect();

    // max_resident_bytes = 1 forces an eviction pass every tick (only
    // one active session survives it), so studies are suspended and
    // resumed mid-window repeatedly, across fault profiles and rosters.
    let dir = temp_dir("evict");
    let mut svc = StudyService::new(evict_config(&dir)).expect("service");
    let ids: Vec<_> = configs.iter().map(|c| svc.submit(c.clone())).collect();
    run_to_completion(&mut svc);

    let report = svc.run_report();
    let evictions = report.metrics.counter_total("service_evictions");
    let resumes = report.metrics.counter_total("service_resumes");
    assert!(evictions > 0, "budget never forced an eviction");
    assert_eq!(
        resumes, evictions,
        "every evicted study must be readmitted exactly once per eviction"
    );
    assert_eq!(report.metrics.counter_total("service_completions"), 4);

    // Forced suspend/resume cycles must not perturb a single bit of
    // any study's canonical report.
    for (id, expected) in ids.iter().zip(&baselines) {
        assert_eq!(svc.report_json(*id).as_deref(), Some(expected.as_str()));
    }

    // The victim's size is surfaced: the cost-aware score (resident
    // bytes × remaining window) only ever evicts sessions with real
    // state.
    assert!(report.metrics.counter_total("service_evicted_bytes") > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A budget of one byte: every tick evicts all but one active session.
/// `workers: 8` pins that the field is ignored — the reports below were
/// captured with the tick's former worker pool at 1 and at 4 workers.
fn evict_config(dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        slice: Duration::hours(30),
        max_active: 2,
        max_resident_bytes: 1,
        workers: 8,
        dir: dir.to_path_buf(),
    }
}

/// The service's own report for the matrix, unbounded, after every
/// report, every set and one overlap were queried once.
const UNBOUNDED_REPORT: &str = r#"{"meta":{"component":"study_service","max_active":"unbounded","slice_secs":"129600","studies":"4"},"metrics":{"service_admissions":{"type":"counter","value":4},"service_cache_hits":{"type":"counter","value":20},"service_cache_misses":{"type":"counter","value":1},"service_completions":{"type":"counter","value":4},"service_queries":{"type":"counter","value":21},"service_slices":{"type":"counter","value":20},"service_world_builds":{"type":"counter","value":1},"service_world_shares":{"type":"counter","value":3}}}"#;

/// The same under [`evict_config`].
const EVICT_REPORT: &str = r#"{"meta":{"component":"study_service","max_active":"2","slice_secs":"108000","studies":"4"},"metrics":{"service_admissions":{"type":"counter","value":4},"service_cache_hits":{"type":"counter","value":20},"service_cache_misses":{"type":"counter","value":1},"service_completions":{"type":"counter","value":4},"service_evicted_bytes":{"type":"counter","value":3053656},"service_evictions":{"type":"counter","value":10},"service_queries":{"type":"counter","value":21},"service_resumes":{"type":"counter","value":10},"service_slices":{"type":"counter","value":24},"service_world_builds":{"type":"counter","value":1},"service_world_shares":{"type":"counter","value":13}}}"#;

/// The scheduler's whole trace — admissions, slices, evictions and
/// their bytes, resumes, world shares — is held to the
/// text the multi-threaded tick produced, with and without
/// budget-forced evictions.
#[test]
fn service_report_matches_the_captured_schedule() {
    for (evict, expected) in [(false, UNBOUNDED_REPORT), (true, EVICT_REPORT)] {
        let dir = temp_dir(&format!("captured-e{evict}"));
        let config = if evict {
            evict_config(&dir)
        } else {
            ServiceConfig::unbounded(&dir, Duration::hours(36))
        };
        let mut svc = StudyService::new(config).expect("service");
        let ids: Vec<_> = matrix().iter().map(|c| svc.submit(c.clone())).collect();
        run_to_completion(&mut svc);
        let q = svc.queries();
        for &id in &ids {
            q.report_json(id).expect("completed");
            for kind in SetKind::ALL {
                q.set(id, kind).expect("io").expect("completed");
            }
        }
        q.overlap(ids[0], ids[2], SetKind::Ours).expect("io");
        assert_eq!(svc.run_report().to_json(), expected, "evict={evict}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Queries keep serving from another thread while the scheduler ticks:
/// the query client is `Send + Sync`, already-completed studies stay
/// readable mid-tick, and the answers match what the service reports
/// after the run.
#[test]
#[allow(clippy::disallowed_methods)] // the property under test is a second thread
fn queries_serve_concurrently_with_ticks() {
    let dir = temp_dir("concurrent-queries");
    let mut svc =
        StudyService::new(ServiceConfig::unbounded(&dir, Duration::hours(36))).expect("service");
    let ids: Vec<_> = matrix().iter().map(|c| svc.submit(c.clone())).collect();

    // Complete study 0 first so the concurrent reader has something to
    // serve while later studies still tick.
    while svc.report_json(ids[0]).is_none() {
        svc.tick().expect("tick");
    }
    let first_json = svc.report_json(ids[0]).expect("study 0 completed");
    let first_len = svc
        .queries()
        .set(ids[0], SetKind::Ours)
        .expect("io")
        .expect("completed")
        .len();

    let client = svc.queries();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            // Hammer the query path until every study is done; each
            // answer must be internally consistent the whole time.
            let mut served = 0u64;
            loop {
                match client.report_json(ids[0]) {
                    Some(json) => {
                        assert_eq!(json, first_json);
                        served += 1;
                    }
                    None => panic!("completed study became unreadable"),
                }
                let set = client.set(ids[0], SetKind::Ours).expect("io");
                assert_eq!(set.expect("completed").len(), first_len);
                if client.report(ids[3]).is_some() {
                    return served;
                }
            }
        });
        // Tick the scheduler to completion on this thread while the
        // reader runs on the other.
        while !svc.idle() {
            svc.tick().expect("tick");
        }
        assert!(reader.join().expect("reader panicked") > 0);
    });

    // The concurrent traffic changed no study observable.
    assert_eq!(svc.report_json(ids[0]), Some(first_json));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_report_is_canonical_and_deterministic() {
    let run = |queries: bool| -> String {
        let dir = temp_dir(if queries { "det-q" } else { "det" });
        let mut svc =
            StudyService::new(ServiceConfig::unbounded(&dir, Duration::days(2))).expect("service");
        let a = svc.submit(StudyConfig::tiny(5));
        let b = svc.submit(StudyConfig::tiny(5).with_fault(FaultProfile::Lossy1Pct));
        run_to_completion(&mut svc);
        if queries {
            let _ = svc.report_json(a);
            let _ = svc.queries().set(b, SetKind::Rl);
        }
        let json = svc.run_report().to_json();
        let _ = std::fs::remove_dir_all(&dir);
        json
    };

    // Same submissions + same query sequence → byte-identical report.
    let first = run(true);
    assert_eq!(first, run(true));

    // Round-trips through canonical JSON.
    let report = telemetry::RunReport::from_json(&first).expect("parse");
    assert_eq!(report.to_json(), first);
    assert_eq!(report.meta["component"], "study_service");
    assert_eq!(report.metrics.counter_total("service_completions"), 2);
    assert_eq!(report.metrics.counter_total("service_world_builds"), 1);

    // The query counters are part of the deterministic report: a run
    // without the queries differs.
    assert_ne!(first, run(false));
}
