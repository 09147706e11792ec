//! The repository's benchmark: one process per (workload, seed).
//!
//! The process first pins itself to one CPU (see
//! [`harness::pin_to_one_cpu`] for why). `--trace 0` builds the inputs
//! from `--seed`, times the set-up closure, runs the workload body
//! `REPS` times on fresh state, checks the outputs, and reports the
//! five end-to-end metrics. `--trace 1` runs the body once untraced and
//! once staged under spans, runs the per-layer probes, reports every
//! per-layer metric, and writes `benchmark/out/trace-<workload>.json`.
//! Every metric is printed by name with its unit; the last line of
//! standard output is the machine-readable result. See README.md.

mod harness;
mod metrics;
mod probes;
mod trace;
mod workloads;

use harness::{calibrate, counting_allocs, median, peak_rss_bytes, reset_peak_rss, timed};
use metrics::{put, Metrics, END_TO_END};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{AnalyzeMid, CollectCenti, Ops, Scale, ServiceEvict, StudyRun, Workload};

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

/// The five workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 5] = [
    "study_mid",
    "study_hostile",
    "collect_centi",
    "service_evict",
    "analyze_mid",
];

/// Nominal length of one body repetition on the 2-core reference host.
/// `--seconds` buys one repetition per this many seconds, so the count
/// of repetitions — which the minimum over them depends on — is fixed
/// by the command line and not by how fast the host happens to be.
const BODY_NOMINAL_S: u64 = 6;

/// Repetitions of a run that names no `--seconds`; `BENCHMARK.json`'s
/// `run_seconds` is this many times [`BODY_NOMINAL_S`]. Two, not three:
/// the driver's 114 runs must end within 3 420 s, and in the host's slow
/// phases a repetition takes 9 s.
const DEFAULT_REPS: u64 = 2;

/// Where the benchmark writes: `benchmark/out` (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn usage() -> ! {
    eprintln!(
        "usage: repo-benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1]\n\
         \x20      repo-benchmark --smoke [--workload <name>] [--seed N]\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        workload: None,
        seed: 42,
        seconds: DEFAULT_REPS * BODY_NOMINAL_S,
        trace: false,
        scale: Scale::Full,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => opts.workload = Some(value()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => opts.scale = Scale::Smoke,
            _ => usage(),
        }
    }
    opts
}

/// The last line of standard output: the result the driver reads.
fn result_line(ops: &Ops, metrics: &[(String, f64, String)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn print_metrics(metrics: &[(String, f64, String)]) {
    for (name, value, unit) in metrics {
        println!("metric {name} {value} {unit}");
    }
}

/// `--trace 0`: timed set-up, `reps` repetitions, checks, end-to-end
/// metrics.
fn run_untraced<W: Workload>(w: &W, opts: &Options, ops: &mut Ops) -> Vec<(String, f64, String)> {
    let setup_reps = match opts.scale {
        Scale::Full => W::SETUP_REPS,
        Scale::Smoke => 1,
    };
    let reps = match opts.scale {
        Scale::Full => ((opts.seconds + BODY_NOMINAL_S / 2) / BODY_NOMINAL_S).clamp(1, 10),
        Scale::Smoke => 1,
    };

    // Set-up, back to back; each result but the last is dropped (outside
    // the timed call) when the next one replaces it.
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..setup_reps {
        let t = timed(|| w.setup());
        setup_times.push(t.wall_s);
        state = Some(t.value);
    }
    let mut state = state.expect("at least one set-up ran");
    let setup_s = median(&setup_times);
    println!(
        "setup: {setup_reps} repetitions, median {setup_s:.6} s, total {:.3} s",
        setup_times.iter().sum::<f64>()
    );

    // The resident-set peak is that of the repetitions: the set-up
    // before them and the checks after them cannot set it.
    reset_peak_rss();
    let mut runs = Vec::new();
    for rep in 0..reps {
        if rep > 0 && W::FRESH_STATE_PER_REP {
            state = w.setup();
        }
        let t = timed(|| w.body(&mut state, ops));
        ops.attempted += 1;
        println!(
            "rep {rep}: wall_s {:.6} cpu_s {:.2} events {} sim_digest {:016x}",
            t.wall_s, t.cpu_s, t.value.events, t.value.digest
        );
        runs.push(t);
    }
    let peak_rss = peak_rss_bytes();
    let first = &runs[0].value;
    ops.check(
        runs.iter()
            .all(|r| r.value.digest == first.digest && r.value.events == first.events),
        "equal sim_digest and event count across repetitions",
    );
    let best = runs
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one repetition ran");
    w.verify(&state, ops);

    println!("sim_digest {:016x}", first.digest);
    println!("events {}", first.events);
    let values = [
        setup_s,
        best.wall_s,
        best.cpu_s,
        first.events as f64 / best.wall_s,
        peak_rss as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_owned(), value, unit.to_owned()))
        .collect()
}

/// `--trace 1`: one untraced repetition, one staged pass under spans
/// with the allocation counters armed, the probes, and the trace file.
fn run_traced<W: Workload>(
    name: &str,
    w: &W,
    opts: &Options,
    ops: &mut Ops,
) -> Vec<(String, f64, String)> {
    let mut m: Metrics = metrics::zeroed();
    let calib_before = calibrate();

    let mut state = w.setup();
    let untraced = timed(|| w.body(&mut state, ops));
    drop(state);
    ops.attempted += 1;

    let mut tr = Tracer::new();
    let (outcome, allocs, alloc_bytes) =
        counting_allocs(|| tr.span("traced_pass", |tr| w.traced(tr, &mut m, ops)));
    ops.attempted += 1;
    // A span named like a metric is that metric: its summed duration.
    for (name, slot) in m.iter_mut() {
        if let Some(total) = tr.total_s(name) {
            slot.0 = total;
        }
    }
    ops.check(
        outcome.digest == untraced.value.digest && outcome.events == untraced.value.events,
        "staged pass reproduces the body's sim_digest and event count",
    );
    println!("sim_digest {:016x}", outcome.digest);
    println!("events {}", outcome.events);

    let mid = workloads::mid_world(opts.seed, opts.scale);
    tr.span("probes", |_| {
        probes::run(opts.seed, &mid, opts.scale, &mut m)
    });

    let calib_after = calibrate();
    put(&mut m, "host.calib_s", calib_before);
    put(&mut m, "host.calib_drift", calib_after / calib_before);
    put(&mut m, "alloc.count", allocs as f64);
    put(&mut m, "alloc.bytes", alloc_bytes as f64);
    put(&mut m, "trace.spans", tr.len() as f64);
    put(
        &mut m,
        "trace.overhead_ratio",
        tr.total_s("body").unwrap_or(0.0) / untraced.wall_s,
    );

    let path = out_dir().join(format!("trace-{name}.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, tr.to_json(name, opts.seed, &m)));
    ops.check(written.is_ok(), "trace file written");
    println!("trace: {} spans -> {}", tr.len(), path.display());

    // In declaration order, not the map's alphabetical one.
    metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = m[&name].0;
            (name, value, unit.to_owned())
        })
        .collect()
}

fn run_one<W: Workload>(name: &str, w: &W, opts: &Options) -> bool {
    println!(
        "workload {name} seed {} trace {} (system threads fixed: workers 2, shards <= 2)",
        opts.seed,
        u8::from(opts.trace)
    );
    let mut ops = Ops::default();
    let metrics = if opts.trace {
        run_traced(name, w, opts, &mut ops)
    } else {
        run_untraced(w, opts, &mut ops)
    };
    print_metrics(&metrics);
    println!("ops_attempted {}", ops.attempted.max(1));
    println!("ops_failed {}", ops.failed);
    println!("{}", result_line(&ops, &metrics));
    ops.failed == 0
}

fn dispatch(name: &str, opts: &Options) -> bool {
    let (seed, scale) = (opts.seed, opts.scale);
    match name {
        "study_mid" => run_one(name, &StudyRun::mid(seed, scale), opts),
        "study_hostile" => run_one(name, &StudyRun::hostile(seed, scale), opts),
        "collect_centi" => run_one(name, &CollectCenti::new(seed, scale), opts),
        "service_evict" => run_one(name, &ServiceEvict::new(seed, scale), opts),
        "analyze_mid" => run_one(name, &AnalyzeMid::new(seed, scale), opts),
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let mut opts = parse_args();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    match harness::pin_to_one_cpu() {
        Some(cpu) => println!("cpus {cpus}, pinned to cpu {cpu}"),
        None => println!("cpus {cpus}, not pinned"),
    }
    let ok = match (opts.workload.take(), opts.scale) {
        (Some(name), _) => dispatch(&name, &opts),
        // Smoke without a workload: all five, traced, in this process.
        (None, Scale::Smoke) => {
            opts.trace = true;
            let mut ok = true;
            for name in WORKLOADS {
                ok &= dispatch(name, &opts);
            }
            ok
        }
        (None, Scale::Full) => usage(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
