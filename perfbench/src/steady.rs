//! `--steady`: two interleaved sets of runs of this build, compared the
//! way a regression gate compares a change with its parent. For every
//! end-to-end metric and workload it prints both sets' medians and
//! quartiles, the spread (interquartile distance over the median) and the
//! shift between the medians, against the metric's bound in
//! `BENCHMARK.json`; and it checks that both sets fail the same share of
//! operations.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::metrics::quartiles;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let Some(Value::Seq(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("an end_to_end entry has no name".to_string()),
            };
            let lower_is_better = matches!(m.get("better"), Some(Value::Str(s)) if s == "lower");
            let bound = match m.get("bound") {
                Some(Value::F64(b)) => *b,
                Some(Value::U64(b)) => *b as f64,
                _ => return Err(format!("{name} has no bound")),
            };
            Ok(Bound {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// One child run's result line.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one child and keeps its whole output in
/// `.bench_out/steady/<workload>-<set>-<seed>.txt`.
fn run_once(workload: &str, set: usize, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let dir = std::path::Path::new(crate::OUT_DIR).join("steady");
    let log = dir.join(format!("{workload}-{}-{seed}.txt", ["A", "B"][set]));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&log, &*stdout)) {
        eprintln!("perfbench --steady: keeping {}: {e}", log.display());
    }
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} failed: {last}"));
    }
    let v: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e:?}"))?;
    let num = |v: Option<&Value>| match v {
        Some(Value::U64(n)) => *n as f64,
        Some(Value::I64(n)) => *n as f64,
        Some(Value::F64(x)) => *x,
        _ => f64::NAN,
    };
    let mut metrics = BTreeMap::new();
    if let Some(Value::Map(ms)) = v.get("metrics") {
        for (name, m) in ms {
            metrics.insert(name.clone(), num(m.get("value")));
        }
    }
    Ok(RunResult {
        attempted: num(v.get("attempted")) as u64,
        failed: num(v.get("failed")) as u64,
        metrics,
    })
}

pub fn run(workload: &str, runs: usize, seconds: f64) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench --steady: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if workload.is_empty() {
        crate::WORKLOADS.to_vec()
    } else {
        vec![workload]
    };
    let runs = runs.max(2);
    let mut all_ok = true;
    for w in workloads {
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            let seed = i as u64 + 1;
            // Alternate which set goes first, so drift hits both alike.
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                match run_once(w, set, seed, seconds) {
                    Ok(r) => sets[set].push(r),
                    Err(e) => {
                        eprintln!("perfbench --steady: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!("{w}: two sets of {runs} runs, seeds 1..={runs}, {seconds} s each");
        println!(
            "  {:<20} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
            "metric",
            "set A q1",
            "set A med",
            "set A q3",
            "set B q1",
            "set B med",
            "set B q3",
            "spread",
            "shift",
            "bound"
        );
        for b in &bounds {
            let vals = |s: &Vec<RunResult>| -> Vec<f64> {
                s.iter()
                    .filter_map(|r| r.metrics.get(&b.name).copied())
                    .collect()
            };
            let (a, bb) = (vals(&sets[0]), vals(&sets[1]));
            if a.len() < 2 || bb.len() < 2 {
                println!("  {:<20} missing", b.name);
                all_ok = false;
                continue;
            }
            let (a1, am, a3) = quartiles(&a);
            let (b1, bm, b3) = quartiles(&bb);
            let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
            // How much worse set B's median is than set A's, as a share.
            let shift = if b.lower_is_better {
                bm / am - 1.0
            } else {
                1.0 - bm / am
            };
            let ok = spread <= b.bound && shift <= b.bound;
            all_ok &= ok;
            println!(
                "  {:<20} {a1:>12.5} {am:>12.5} {a3:>12.5} {b1:>12.5} {bm:>12.5} {b3:>12.5} \
                 {spread:>8.4} {shift:>8.4} {:>8.3}  {}",
                b.name,
                b.bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
        let share = |s: &Vec<RunResult>| -> (u64, u64) {
            s.iter()
                .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
        };
        let ((aa, af), (ba, bf)) = (share(&sets[0]), share(&sets[1]));
        let same = u128::from(af) * u128::from(ba) == u128::from(bf) * u128::from(aa);
        all_ok &= same;
        println!(
            "  failed share: set A {af}/{aa}, set B {bf}/{ba} — {}",
            if same { "identical" } else { "DIFFERENT" }
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
