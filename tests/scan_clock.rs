//! When probes go out (Appendix A.2.1): each NTP-sourced address is
//! probed on its own schedule, 10 s to about 10 min after its first
//! sight, however many other targets share the scanner's budget; and a
//! hitlist submitted at one instant is scanned in about ten minutes plus
//! the time its probes take to pass the packet budget.
//!
//! The bounds allow every retry a train may make: each failed attempt's
//! timeout and backoff, plus the last attempt's timeout.

use netsim::time::{Duration, SimTime};
use scanner::{Protocol, RetryPolicy, ScanPolicy};
use std::collections::HashMap;
use timetoscan::{FaultProfile, Study, StudyConfig};

/// The longest a train can run past its first probe's asked-for time.
fn retry_budget(policy: &ScanPolicy) -> Duration {
    let timeout = Protocol::ALL
        .iter()
        .map(|&p| RetryPolicy::timeout_for(p).as_secs())
        .max()
        .unwrap_or(0);
    let retries: u64 = (0..policy.retry.attempts.max(1) - 1)
        .map(|a| timeout + RetryPolicy::backoff_after(a).as_secs())
        .sum();
    Duration::secs(retries + timeout)
}

fn check(profile: FaultProfile) {
    let s = Study::run(StudyConfig::small(42).with_fault(profile));
    let policy = ScanPolicy::default();
    let budget = retry_budget(&policy).as_secs();
    let last = ScanPolicy::delay_of(Protocol::ALL.len() - 1).as_secs();
    let first = ScanPolicy::delay_of(0).as_secs();

    let seen: HashMap<_, SimTime> = s.feed.iter().map(|o| (o.addr, o.seen)).collect();
    let lag = |r: &scanner::ScanRecord| r.time.as_secs() - seen[&r.addr].as_secs();
    let records = s.ntp_scan.records();
    let max_lag = records.iter().map(lag).max().expect("NTP records");
    assert!(
        max_lag <= last + budget,
        "{profile:?}: an NTP record lands {max_lag} s after its feed `seen`, \
         past the last protocol's delay {last} s + retry budget {budget} s"
    );
    let max_first = records
        .iter()
        .filter(|r| r.protocol == Protocol::ALL[0])
        .map(lag)
        .max()
        .expect("first-protocol records");
    assert!(
        max_first <= first + budget,
        "{profile:?}: a first-protocol record lands {max_first} s after its \
         feed `seen`, past its delay {first} s + retry budget {budget} s"
    );

    let start = s.window().0 + s.config.hitlist_scan_offset;
    let end = s
        .hitlist_scan
        .records()
        .iter()
        .map(|r| r.time)
        .max()
        .expect("hitlist records");
    let probes = s.hitlist_scan.targets() * Protocol::ALL.len() as u64;
    let rate_secs = probes.div_ceil(policy.rate_pps);
    let span = end.since(start).as_secs();
    assert!(
        span <= last + budget + rate_secs,
        "{profile:?}: the hitlist scan's records span {span} s, past \
         {last} s + retry budget {budget} s + {probes} probes at {} pps",
        policy.rate_pps
    );
}

#[test]
fn ideal_probes_go_out_on_their_targets_schedule() {
    check(FaultProfile::Ideal);
}

#[test]
fn congested_probes_go_out_on_their_targets_schedule() {
    check(FaultProfile::Congested);
}
