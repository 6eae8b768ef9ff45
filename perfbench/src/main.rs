//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale-day --seed 1 --seconds 38 --trace 0
//! ```
//!
//! Generates the workload's inputs from the seed (several times, timed
//! as `setup_s`), replays them against fresh controllers for about the
//! given number of seconds, checks that every repetition made the same
//! decisions, and prints every metric by name with its unit; timings
//! are each call's fastest over the repetitions. The last
//! line of standard output is one JSON object. With `--trace 1` half
//! the time runs untraced and half traced, and the per-layer metrics
//! are printed instead. A failed correctness check exits with status 1
//! and prints no numbers. See README.md.

mod gen;
mod probe;
mod replay;
mod shadow;
mod stats;
mod workloads;

use probe::{spans_tsv, Layer, LayerTotals};
use stats::Quantiles;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::flat_repack::FlatRepack;
use workloads::scale_day::ScaleDay;
use workloads::service_day::ServiceDay;
use workloads::setup2_p2::Setup2P2;
use workloads::{RepResult, Workload};

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUPS_MIN`, then more until `SETUP_BUDGET_S` have passed or
/// `SETUPS_MAX` are done.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;
/// Where result and span files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Outcome {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    spans: Option<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <scale-day|flat-repack|service-day|setup2-p2> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "scale-day" => run::<ScaleDay>(&args),
        "flat-repack" => run::<FlatRepack>(&args),
        "service-day" => run::<ServiceDay>(&args),
        "setup2-p2" => run::<Setup2P2>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(outcome) => {
            report(&args, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: FAILED: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

fn provenance(args: &Args) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"commit\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"parallel\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_PARALLEL"),
    )
}

fn report(args: &Args, outcome: &Outcome) {
    let provenance = provenance(args);
    println!("provenance {provenance}");
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    let result = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    // The artifact keeps the provenance and notes beside the numbers.
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let notes: Vec<String> = outcome.notes.iter().map(|n| format!("{n:?}")).collect();
    let artifact = format!(
        "{{\"provenance\": {provenance}, \"notes\": [{}], \"result\": {result}}}\n",
        notes.join(", ")
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), artifact))
        .and_then(|()| match &outcome.spans {
            Some(tsv) => std::fs::write(format!("{OUT_DIR}/{}.spans.tsv", args.workload), tsv),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {stem}.json: {e}");
    }
    println!("{result}");
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

// Other tenants of a shared host only ever add time, in spells from
// milliseconds to minutes long. The replay is deterministic, so every
// repetition makes the same calls and cuts them into the same units;
// the fastest of a call's or a unit's replays is the estimate of the
// program's own cost that such spells move least (Chen and Revels,
// "Robust benchmarking in noisy environments", 2016). See README.md.

/// Every call's fastest duration over the repetitions.
fn fastest_calls(
    reps: &[RepResult],
    f: impl Fn(&RepResult) -> &Vec<f64>,
) -> Result<Quantiles, String> {
    let mut fastest = f(&reps[0]).clone();
    for r in &reps[1..] {
        let durations = f(r);
        if durations.len() != fastest.len() {
            return Err("repetitions made different calls".into());
        }
        for (min, &d) in fastest.iter_mut().zip(durations) {
            *min = min.min(d);
        }
    }
    Ok(Quantiles::new(fastest))
}

/// Entry calls per second of replay, every unit taking its fastest
/// repetition's wall time.
fn fastest_units_rate(reps: &[RepResult]) -> Result<f64, String> {
    let units = &reps[0].timings.units;
    if reps.iter().any(|r| r.timings.units.len() != units.len()) {
        return Err("repetitions are not cut into the same units".into());
    }
    let wall: f64 = (0..units.len())
        .map(|u| {
            reps.iter()
                .map(|r| r.timings.units[u].wall_s)
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    Ok(units.iter().map(|u| u.calls).sum::<u64>() as f64 / wall)
}

/// Repeats for about `budget` seconds and at least `min` times.
fn reps<W: Workload>(
    w: &mut W,
    traced: bool,
    budget: f64,
    min: usize,
) -> Result<Vec<RepResult>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut durations = Vec::new();
    loop {
        let t = Instant::now();
        let mut rep = w.rep(traced);
        if let Some(e) = rep.error {
            return Err(e);
        }
        rep.peak_rss_mib = peak_rss_mib()?;
        out.push(rep);
        durations.push(t.elapsed().as_secs_f64());
        let elapsed = started.elapsed().as_secs_f64();
        // Stops once another repetition would likely end further past
        // the budget than this one ends short of it, so that a run lasts
        // about `budget` however long its repetitions are.
        let typical = Quantiles::new(durations.clone()).median().unwrap_or(0.0);
        if out.len() >= min && elapsed + typical / 2.0 >= budget {
            return Ok(out);
        }
    }
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let nproc = nproc();
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut workload = None;
    let setups_started = Instant::now();
    while setup_s.len() < SETUPS_MIN
        || (setup_s.len() < SETUPS_MAX
            && setups_started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let t = Instant::now();
        let (w, generated) = W::setup(args.seed, nproc);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(generated);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    let (plain, traced) = if args.trace {
        let plain = reps(&mut w, false, args.seconds / 2.0, 1)?;
        let traced = reps(&mut w, true, args.seconds / 2.0, 1)?;
        (plain, traced)
    } else {
        (reps(&mut w, false, args.seconds, 2)?, Vec::new())
    };

    // ---- correctness gate
    let all: Vec<&RepResult> = plain.iter().chain(&traced).collect();
    if all.iter().any(|r| r.digest != all[0].digest) {
        return Err("the report digest differs between repetitions of one seed".into());
    }
    w.self_check(&plain[0])?;
    w.gate()?;

    let attempted = all.iter().map(|r| r.timings.calls).sum();
    let failed = all.iter().map(|r| r.timings.failed).sum();
    let setup = Quantiles::new(setup_s);
    let generate = Quantiles::new(generate_s);
    let mut notes = vec![
        format!(
            "repetitions: {} untraced, {} traced; set-ups: {}",
            plain.len(),
            traced.len(),
            setup.count()
        ),
        format!(
            "failed_ops_frac {:.6} ({failed} of {attempted} entry calls)",
            failed as f64 / attempted as f64
        ),
        format!("setup_s {}", setup.describe(1.0, "s")),
    ];

    let (metrics, spans) = if args.trace {
        let metrics = per_layer(&plain, &traced, &generate, &mut notes);
        (metrics, traced.last().map(|r| spans_tsv(&r.spans)))
    } else {
        (end_to_end(&plain, &setup, &mut notes)?, None)
    };
    Ok(Outcome {
        metrics,
        notes,
        attempted,
        failed,
        spans,
    })
}

fn end_to_end(
    plain: &[RepResult],
    setup: &Quantiles,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let rates = Quantiles::new(
        plain
            .iter()
            .map(|r| r.rate_events as f64 / r.rate_wall_s)
            .collect(),
    );
    notes.push(format!(
        "events_per_s of whole repetitions {}",
        rates.describe(1.0, "1/s")
    ));
    let per_rep: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.0}", r.rate_events as f64 / r.rate_wall_s))
        .collect();
    notes.push(format!("events_per_s by repetition: {}", per_rep.join(" ")));
    if let Some(host) = Quantiles::new(
        plain
            .iter()
            .filter_map(|r| r.service.map(|s| r.rate_events as f64 / s.run_s))
            .collect(),
    )
    .median()
    {
        notes.push(format!("SessionHost events_per_s {host:.0} 1/s (median)"));
    }
    let admit = fastest_calls(plain, |r| &r.timings.arrive)?;
    let tick = fastest_calls(plain, |r| &r.timings.sample_tick)?;
    let boundary = fastest_calls(plain, |r| &r.timings.boundary)?;
    let units = plain[0].timings.units.len();
    notes.push(format!(
        "timings below: each call's fastest of {} repetitions; events_per_s from each of \
         {units} units' fastest",
        plain.len()
    ));
    // The same timings as every repetition saw them, for comparison.
    let pooled = |f: fn(&RepResult) -> &Vec<f64>, p: f64| {
        let q = Quantiles::new(plain.iter().flat_map(|r| f(r).iter().copied()).collect());
        let v = if p <= 50.0 { q.median() } else { q.at(p) };
        v.map_or("-".to_string(), |v| format!("{v:.9}"))
    };
    notes.push(format!(
        "all repetitions pooled (s): admit p50 {} p99 {}, sample tick p99 {}, boundary p50 {}",
        pooled(|r| &r.timings.arrive, 50.0),
        pooled(|r| &r.timings.arrive, 99.0),
        pooled(|r| &r.timings.sample_tick, 99.0),
        pooled(|r| &r.timings.boundary, 50.0),
    ));
    notes.push(format!("admit {}", admit.describe(1e6, "us")));
    notes.push(format!("sample tick {}", tick.describe(1e6, "us")));
    notes.push(format!("boundary {}", boundary.describe(1e3, "ms")));
    let q = plain[0].quality;
    notes.push(format!(
        "violation_pct {:.4} %, violation_max_pct {:.4} %, deferred_peak {} count",
        q.violation_pct(),
        q.worst_period_pct,
        q.deferred_peak
    ));
    let mut metrics = Vec::new();
    let mut put = |name, value: Option<f64>, scale: f64, unit| match value {
        Some(v) => metrics.push(Metric {
            name,
            value: v * scale,
            unit,
        }),
        // A percentile the count cannot support is left out, not 0.
        None => notes.push(format!("{name} left out: too few samples")),
    };
    put("setup_s", setup.median(), 1.0, "s");
    put("events_per_s", Some(fastest_units_rate(plain)?), 1.0, "1/s");
    put("admit_p50_us", admit.median(), 1e6, "us");
    put("admit_p99_us", admit.at(99.0), 1e6, "us");
    put("tick_p99_us", tick.at(99.0), 1e6, "us");
    put("boundary_p50_ms", boundary.median(), 1e3, "ms");
    // After the set-ups and one repetition: a fixed amount of work,
    // however many repetitions the run then fits.
    put("peak_rss_mib", Some(plain[0].peak_rss_mib), 1.0, "MiB");
    put("energy_kwh", Some(q.energy_kwh), 1.0, "kWh");
    put("migrations", Some(q.migrations), 1.0, "count");
    Ok(metrics)
}

fn per_layer(
    plain: &[RepResult],
    traced: &[RepResult],
    generate: &Quantiles,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let reps = traced.len() as f64;
    let mut totals = LayerTotals::default();
    for r in traced {
        totals.add(&r.spans);
    }
    // Folds from +0.0: an empty `f64` sum is -0.0.
    let sum = |f: &dyn Fn(&RepResult) -> f64| traced.iter().map(f).fold(0.0, |a, x| a + x) / reps;
    let busy = |l: Layer| totals.self_s(l) / reps;
    let count = |l: Layer| totals.count(l) as f64 / reps;
    let wall = sum(&|r| r.replay_s);
    let unattributed = wall - totals.top_level_ns as f64 * 1e-9 / reps;
    let per_call = |rs: &[RepResult]| {
        rs.iter().map(|r| r.replay_s).sum::<f64>()
            / rs.iter().map(|r| r.timings.calls as f64).sum::<f64>()
    };
    let overhead_pct = 100.0 * (per_call(traced) / per_call(plain) - 1.0);
    let shadow = |f: &dyn Fn(&shadow::ShadowStats) -> f64| sum(&|r| f(&r.shadow));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let session_busy_s = sum(&|r| r.service.map_or(0.0, |s| s.session_busy_s));
    let workers = traced[0].service.map_or(0.0, |s| s.workers as f64);
    let efficiency = ratio(session_busy_s, workers * busy(Layer::ServiceRun));
    let sink_events = sum(&|r| r.sink_events as f64);

    let mut attributed = Vec::new();
    for layer in Layer::ALL.iter().filter(|l| !l.is_shadow()) {
        let s = busy(*layer);
        if s > 0.0 {
            attributed.push(format!("{} {s:.4}", layer.name()));
        }
    }
    notes.push(format!(
        "traced wall {wall:.4} s = {} + unattributed {unattributed:.4} (self times, per repetition)",
        attributed.join(" + ")
    ));
    notes.push(format!(
        "tracing overhead {overhead_pct:.2}% per entry call against the untraced repetitions"
    ));

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("workload.generate_s", generate.median().unwrap_or(0.0), "s"),
        m("cells.arrive.busy_s", busy(Layer::CellsArrive), "s"),
        m("cells.depart.busy_s", busy(Layer::CellsDepart), "s"),
        m("cells.tick.busy_s", busy(Layer::CellsTick), "s"),
        m("cells.route.busy_s", busy(Layer::CellsRoute), "s"),
        m(
            "cells.universe_ids",
            ratio(
                shadow(&|s| s.cell_universe_ids),
                shadow(&|s| s.cell_boundaries),
            ),
            "count",
        ),
        m(
            "cells.live_pair_fraction",
            ratio(
                shadow(&|s| s.cell_live_pairs),
                shadow(&|s| s.cell_universe_pairs),
            ),
            "ratio",
        ),
        m(
            "controller.arrive.count",
            count(Layer::ControllerArrive),
            "count",
        ),
        m(
            "controller.arrive.busy_s",
            busy(Layer::ControllerArrive),
            "s",
        ),
        m(
            "controller.depart.busy_s",
            busy(Layer::ControllerDepart),
            "s",
        ),
        m(
            "controller.tick.sample.count",
            count(Layer::TickSample),
            "count",
        ),
        m(
            "controller.tick.sample.busy_s",
            busy(Layer::TickSample),
            "s",
        ),
        m(
            "controller.tick.boundary.count",
            count(Layer::TickBoundary),
            "count",
        ),
        m(
            "controller.tick.boundary.busy_s",
            busy(Layer::TickBoundary),
            "s",
        ),
        m(
            "controller.tick.offcycle.count",
            count(Layer::TickOffcycle),
            "count",
        ),
        m(
            "controller.tick.offcycle.busy_s",
            busy(Layer::TickOffcycle),
            "s",
        ),
        m(
            "controller.server_fail.count",
            count(Layer::ServerFail),
            "count",
        ),
        m(
            "controller.server_fail.busy_s",
            busy(Layer::ServerFail),
            "s",
        ),
        m(
            "controller.server_recover.busy_s",
            busy(Layer::ServerRecover),
            "s",
        ),
        m(
            "controller.deferred_peak",
            traced[0].quality.deferred_peak,
            "count",
        ),
        m(
            "corr.window_replay.busy_s",
            busy(Layer::CorrWindowReplay),
            "s",
        ),
        m("corr.pair_samples", shadow(&|s| s.pair_samples), "count"),
        m("alloc.place.count", count(Layer::AllocPlace), "count"),
        m("alloc.place.busy_s", busy(Layer::AllocPlace), "s"),
        m("service.run_s", busy(Layer::ServiceRun), "s"),
        m("service.session_busy_s", session_busy_s, "s"),
        m("service.parallel_efficiency", efficiency, "ratio"),
        m("sink.events", sink_events, "count"),
        m("sink.busy_s", busy(Layer::Sink), "s"),
        m(
            "sink.dropped_frac",
            ratio(sum(&|r| r.sink_dropped as f64), sink_events),
            "ratio",
        ),
        m("trace.wall_s", wall, "s"),
        m("trace.unattributed_s", unattributed, "s"),
        m("trace.overhead_pct", overhead_pct, "%"),
    ]
}
