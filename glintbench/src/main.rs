//! glintbench — the repo benchmark.
//!
//! ```text
//! glintbench --workload <serve_mixed|drift_screen|churn_ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the trained paper-configuration fixture and the workload's seeded
//! inputs (several times, reporting the median scaled on-CPU time as
//! `setup_s`), measures the workload for `--seconds`, checks its outputs,
//! and prints one JSON result line last on stdout. `--trace 1` measures a
//! second, traced pass and reports the per-layer metrics instead. Exits 1
//! when a correctness check fails, 2 on a usage error. See README.md next
//! to this file.

mod calib;
mod churn_ingest;
mod cpu;
mod drift_screen;
mod fixture;
mod inputs;
mod kernels;
mod layers;
mod report;
mod serve_mixed;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use glint_ml::metrics::ConfusionMatrix;

use calib::{Reference, REFERENCE_NOMINAL_MS};
use cpu::Stamp;
use fixture::Fixture;
use report::{
    end_to_end_names, per_layer_names, required_layers, result_line, Metrics, TIMED_LAYERS,
};
use spans::Recorder;
use stats::median;

/// Times the fixture and inputs are built per run; `setup_s` is the median
/// of their on-CPU times, each scaled to the reference speed read just
/// before and after it.
const SETUP_REPS: usize = 3;
/// Reference units run before and after each set-up.
const SPEED_UNITS: usize = 9;

pub const WORKLOADS: [&str; 3] = ["serve_mixed", "drift_screen", "churn_ingest"];

/// What one measured pass produced.
#[derive(Default)]
pub struct RunResult {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn problem(&mut self, what: String) {
        eprintln!("[glintbench] CHECK FAILED: {what}");
        self.problems.push(what);
    }
}

/// Weighted F1 (the paper's convention) of threat verdicts.
pub fn weighted_f1(truth: &[usize], pred: &[usize]) -> f64 {
    ConfusionMatrix::from_predictions(truth, pred).weighted_f1()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where run artifacts (span files, scratch shards) go: under the build
/// directory, so a checkout stays clean.
fn out_dir() -> PathBuf {
    let build =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    build.join("glintbench-out")
}

/// Peak resident set of this process in MB (VmHWM).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

enum State {
    Serve(Box<serve_mixed::State>),
    Screen(Box<drift_screen::State>),
    Churn(Box<churn_ingest::State>),
}

fn build_state(
    args: &Args,
    fixture: &Fixture,
    shard_dir: &std::path::Path,
) -> Result<State, String> {
    Ok(match args.workload.as_str() {
        "serve_mixed" => State::Serve(Box::new(serve_mixed::setup(fixture, args.seed))),
        "drift_screen" => State::Screen(Box::new(drift_screen::setup(fixture, args.seed))),
        _ => State::Churn(Box::new(churn_ingest::setup(
            fixture, args.seed, shard_dir,
        )?)),
    })
}

fn measure(state: &mut State, seconds: f64, rec: &Arc<Recorder>) -> RunResult {
    match state {
        State::Serve(s) => serve_mixed::run(s, seconds, rec),
        State::Screen(s) => drift_screen::run(s, seconds, rec),
        State::Churn(s) => churn_ingest::run(s, seconds, rec),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("glintbench: {e}");
            eprintln!(
                "usage: glintbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}

fn run(args: &Args) -> i32 {
    let out = out_dir();
    let tag = format!("{}-{}-{}", args.workload, args.seed, std::process::id());
    let shard_dir = out.join(format!("shards-{tag}"));
    let mut problems = Vec::new();

    // set-up, repeated: fixture training + input generation (+ bootstrap)
    let mut setup_s = Vec::new();
    // set-up parts per repetition, reported as per-layer medians
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut fingerprints = Vec::new();
    let mut kept: Option<(Fixture, State)> = None;
    let mut reference = Reference::new();
    for rep in 0..SETUP_REPS {
        // the previous repetition's fixture and inputs are freed first
        drop(kept.take());
        let mut speed: Vec<f64> = (0..SPEED_UNITS).map(|_| reference.unit()).collect();
        let start = Stamp::now();
        let fixture = Fixture::build();
        let inputs_start = Instant::now();
        let state = match build_state(args, &fixture, &shard_dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[glintbench] set-up failed: {e}");
                return 1;
            }
        };
        let inputs_s = inputs_start.elapsed().as_secs_f64();
        let (wall_ms, cpu_ms) = start.elapsed();
        speed.extend((0..SPEED_UNITS).map(|_| reference.unit()));
        setup_s.push(cpu_ms / 1e3 * REFERENCE_NOMINAL_MS / median(&speed));
        let bootstrap_s = match &state {
            State::Churn(c) => c.bootstrap_s,
            _ => 0.0,
        };
        let t = fixture.times;
        for (name, value) in [
            ("train.corpus_s", t.corpus_s),
            ("train.dataset_s", t.dataset_s),
            ("train.classifier_s", t.classifier_s),
            ("train.contrastive_s", t.contrastive_s),
            ("drift.fit_s", t.drift_fit_s),
            ("churn.bootstrap_s", bootstrap_s),
            ("inputs.generate_s", inputs_s - bootstrap_s),
        ] {
            parts.entry(name).or_default().push(value);
        }
        fingerprints.push(fixture.fingerprint());
        eprintln!(
            "[glintbench] set-up {}/{SETUP_REPS}: {:.2} s scaled on-CPU, {:.2} s raw on-CPU, {:.2} s wall \
             (fixture {:.2} s, inputs {:.2} s)",
            rep + 1,
            setup_s[rep],
            cpu_ms / 1e3,
            wall_ms / 1e3,
            fixture.build_s(),
            inputs_s
        );
        kept = Some((fixture, state));
    }
    if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        problems.push("fixture builds differ between set-up repetitions".to_string());
    }
    let Some((fixture, mut state)) = kept else {
        return 1;
    };
    drop(fixture);

    let plain = measure(&mut state, args.seconds, &Arc::new(Recorder::new(false)));
    problems.extend(plain.problems.iter().cloned());
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut e2e = plain.e2e;
    e2e.set("setup_s", "s", median(&setup_s));

    let metrics = if args.trace {
        let rec = Arc::new(Recorder::new(true));
        let traced = measure(&mut state, args.seconds, &rec);
        problems.extend(traced.problems.iter().cloned());
        attempted = traced.attempted;
        failed = traced.failed;
        let mut layers = traced.layers;
        for (name, _) in TIMED_LAYERS {
            let s = rec.timing(name);
            if s.n > 0 {
                let unit = if name.ends_with("_ms") { "ms" } else { "us" };
                layers.set(&format!("{name}.p50"), unit, s.p50);
                layers.set(&format!("{name}.tail"), unit, s.tail);
                eprintln!(
                    "[glintbench] layer {name}: p50 {:.3}, p{} {:.3} ({} samples)",
                    s.p50, s.tail_pct, s.tail, s.n
                );
            }
        }
        for (name, values) in &parts {
            layers.set(name, "s", median(values));
        }
        let pct = |name: &str| {
            let (a, b) = (
                e2e.get(name).unwrap_or(0.0),
                traced.e2e.get(name).unwrap_or(0.0),
            );
            if a > 0.0 {
                100.0 * (b - a) / a
            } else {
                0.0
            }
        };
        layers.set("trace.overhead.p50_pct", "%", pct("cpu_p50_ms"));
        layers.set(
            "trace.overhead.throughput_pct",
            "%",
            pct("throughput_per_cpu_s"),
        );
        layers.set("trace.spans", "count", rec.span_count() as f64);
        kernels::table(&mut layers);
        for name in required_layers(&args.workload) {
            let recorded = if TIMED_LAYERS.iter().any(|(n, _)| n == name) {
                rec.timing(name).n > 0
            } else {
                layers.get(name).is_some_and(|v| v > 0.0)
            };
            if !recorded {
                eprintln!("[glintbench] CHECK FAILED: layer {name} recorded nothing");
                problems.push(format!("layer {name} recorded nothing"));
            }
        }
        let path = out.join(format!("spans-{tag}.jsonl"));
        match rec.write(&path) {
            Ok(()) => eprintln!(
                "[glintbench] spans and self times written to {}",
                path.display()
            ),
            Err(e) => eprintln!(
                "[glintbench] could not write spans to {}: {e}",
                path.display()
            ),
        }
        for (layer, (count, total, own)) in rec.self_times() {
            eprintln!(
                "[glintbench] self time {layer}: {:.1} ms of {:.1} ms over {count} spans",
                own as f64 / 1e6,
                total as f64 / 1e6
            );
        }
        layers.select(&per_layer_names())
    } else {
        e2e.set("peak_rss_mb", "MB", peak_rss_mb());
        e2e.select(&end_to_end_names())
    };
    drop(state);

    let correct = problems.is_empty();
    eprintln!(
        "[glintbench] {}: setup_s {:.3} s (median of {SETUP_REPS}), peak_rss_mb {:.1} MB, \
         {attempted} ops attempted, {failed} failed, {}",
        args.workload,
        median(&setup_s),
        peak_rss_mb(),
        if correct {
            "outputs correct"
        } else {
            "OUTPUTS INCORRECT"
        }
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        0
    } else {
        1
    }
}
