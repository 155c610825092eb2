//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steady [--runs 10] [--seconds s] [--workload name]
//! ```
//!
//! A run repeats whole rounds of one workload until `--seconds` have
//! passed (at least two rounds), checks every round's outputs, and prints
//! one JSON object as its last line: the end-to-end metrics untraced, the
//! per-layer metrics with `--trace 1`. `--steady` runs two interleaved sets
//! of runs of this build and compares them against `BENCHMARK.json`'s
//! bounds. See README.md.

mod metrics;
mod probe;
mod replay;
mod rt;
mod sim;
mod steady;
mod usage;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{median, Out};

/// Workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["hot-chain", "exp1-tcp-wal", "mvcc-readers", "paper-sweep"];

/// Rounds every run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;

/// Where scratch logs and traces go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: bool,
    runs: usize,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: false,
        runs: 10,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = val()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = val()? == "1",
            "--runs" => a.runs = val()?.parse().map_err(|_| "bad --runs")?,
            "--steady" => a.steady = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(a.steady || WORKLOADS.contains(&a.workload.as_str())) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.steady {
        return steady::run(&args.workload, args.runs, args.seconds);
    }
    let _ = std::fs::create_dir_all(OUT_DIR);
    let out = if args.workload == "paper-sweep" {
        run_sim(&args)
    } else {
        run_runtime(&args)
    };
    out.finish(&args.workload)
}

/// Repeats `round` until `budget` has passed and at least `MIN_ROUNDS` ran.
fn rounds<T>(budget: Duration, mut round: impl FnMut() -> Option<T>) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || t0.elapsed() < budget {
        match round() {
            Some(r) => out.push(r),
            None => break,
        }
    }
    out
}

fn run_runtime(args: &Args) -> Out {
    let shape = rt::shape(&args.workload).expect("runtime workload names are checked");
    let mut out = Out::default();
    let wal_dir = PathBuf::from(OUT_DIR).join(format!("wal-{}", std::process::id()));
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut rss = None;
    // Every round makes its inputs afresh, so set-up is timed once per
    // round, spread over the run: input generation plus the run call's
    // start-up to the first submission.
    let mut inputs = None;
    let mut setups = Vec::new();
    let plain = rounds(budget, || {
        let t0 = Instant::now();
        let inp = inputs.insert(rt::inputs(&shape, args.seed));
        let gen_s = t0.elapsed().as_secs_f64();
        let r = rt::round(&shape, inp, &wal_dir, false, &mut out.errors)?;
        setups.push(gen_s + r.start_s);
        rss.get_or_insert_with(usage::peak_rss_mb);
        Some(r)
    });
    let inp = inputs.expect("at least one round ran");
    out.attempted += (plain.len() * inp.specs.len()) as u64;
    println!(
        "{}: {} rounds of {} transactions ({} read-only), seed {}",
        args.workload,
        plain.len(),
        inp.specs.len(),
        inp.readers,
        args.seed
    );
    for (i, r) in plain.iter().enumerate() {
        println!(
            "  round {i}: {:.0} tps, {:.1} us CPU/commit, certify {:.3} s, {} late",
            r.tps(),
            r.cpu_s * 1e6 / r.report.committed as f64,
            r.certify_s,
            r.late
        );
    }
    let tps: Vec<f64> = plain.iter().map(rt::Round::tps).collect();
    if !args.trace {
        let cpu: Vec<f64> = plain
            .iter()
            .map(|r| r.cpu_s * 1e6 / r.report.committed as f64)
            .collect();
        let cert: Vec<f64> = plain.iter().map(|r| r.certify_s).collect();
        let rss = rss.unwrap_or(f64::NAN);
        metrics::end_to_end(&mut out, &tps, &cpu, &cert, rss, &setups);
        return out;
    }

    // Traced half: the same rounds with every probe attached.
    let traced = rounds(budget, || {
        rt::round(&shape, &inp, &wal_dir, true, &mut out.errors)
    });
    out.attempted += (traced.len() * inp.specs.len()) as u64;
    let (Some(last), false) = (traced.last(), plain.is_empty()) else {
        return out;
    };
    let t = last.traced.as_ref().expect("traced rounds carry probes");
    let replayed = replay::replay(
        &inp.catalog,
        &t.links.accesses,
        &t.links.captured,
        rt::config(&shape, &wal_dir).chunk_units,
        &inp.units,
        &PathBuf::from(OUT_DIR).join(format!("replay-{}.wal", std::process::id())),
        &mut out.errors,
    );
    let traced_tps: Vec<f64> = traced.iter().map(rt::Round::tps).collect();
    metrics::runtime_layers(&mut out, &inp, &plain, last, &replayed);
    out.metric(
        "trace.tps_ratio",
        median(&traced_tps) / median(&tps),
        "share",
    );
    metrics::print_fabric(&t.links, last.report.committed);
    metrics::write_trace(
        &args.workload,
        metrics::runtime_spans(last),
        &mut out.errors,
    );
    out
}

fn run_sim(args: &Args) -> Out {
    let mut out = Out::default();
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut rss = None;
    let mut inputs = None;
    let mut setups = Vec::new();
    let plain = rounds(budget, || {
        let t0 = Instant::now();
        let inp = inputs.insert(sim::inputs(args.seed));
        setups.push(t0.elapsed().as_secs_f64());
        let r = sim::round(inp, false, &mut out.errors);
        rss.get_or_insert_with(usage::peak_rss_mb);
        Some(r)
    });
    let inp = inputs.expect("at least one round ran");
    let traced = if args.trace {
        rounds(budget, || Some(sim::round(&inp, true, &mut out.errors)))
    } else {
        Vec::new()
    };
    // One seed, one outcome: every round (traced or not) must reproduce
    // the first one point for point.
    let first = &plain[0].points;
    if plain.iter().chain(&traced).any(|r| &r.points != first) {
        out.errors
            .push("identical sweep points differ between rounds".into());
    }
    for r in plain.iter().chain(&traced) {
        out.attempted += r.completed;
    }
    println!(
        "paper-sweep: {} rounds of {} points ({} simulated transactions each), seed {}",
        plain.len(),
        first.len(),
        plain[0].completed,
        args.seed
    );
    for (i, r) in plain.iter().enumerate() {
        println!(
            "  round {i}: {:.0} tps, {:.1} us CPU/commit, certify {:.3} s",
            r.completed as f64 / r.run_s,
            r.cpu_s * 1e6 / r.completed as f64,
            r.certify_s
        );
    }
    let tps: Vec<f64> = plain.iter().map(|r| r.completed as f64 / r.run_s).collect();
    if !args.trace {
        let cpu: Vec<f64> = plain
            .iter()
            .map(|r| r.cpu_s * 1e6 / r.completed as f64)
            .collect();
        let cert: Vec<f64> = plain.iter().map(|r| r.certify_s).collect();
        let rss = rss.unwrap_or(f64::NAN);
        metrics::end_to_end(&mut out, &tps, &cpu, &cert, rss, &setups);
        return out;
    }
    let last = traced.last().expect("at least MIN_ROUNDS traced rounds");
    let traced_tps: Vec<f64> = traced
        .iter()
        .map(|r| r.completed as f64 / r.run_s)
        .collect();
    metrics::sim_layers(&mut out, last);
    out.metric(
        "trace.tps_ratio",
        median(&traced_tps) / median(&tps),
        "share",
    );
    let spans = last
        .sched
        .as_ref()
        .map(|s| s.spans.clone())
        .unwrap_or_default();
    metrics::write_trace(&args.workload, spans, &mut out.errors);
    out
}
