//! `drift_screen`: the §4.7 unlabeled five-platform pool screen. One
//! closed-loop caller pushes batches of distinct 8–24-node graphs through
//! `PreparedGraph::prepare_all` → `ContrastiveTrainer::embed_all` →
//! `DriftDetector::detect`; parallelism is across the graphs of a batch.
//! No serving, classifier or explanation code runs in the timed loop.

use std::time::Instant;

use glint_core::DriftDetector;
use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::Itgnn;
use glint_gnn::trainer::{ClassifierTrainer, ContrastiveTrainer};
use glint_graph::InteractionGraph;
use glint_tensor::{par, Matrix};

use crate::cpu::Stamp;
use crate::fixture::Fixture;
use crate::inputs::{screen_graphs, GraphSource};
use crate::layers::{self, Models};
use crate::spans::Recorder;
use crate::stats::OpTimes;
use crate::RunResult;

/// Graphs per screened batch.
pub const BATCH: usize = 32;
/// Distinct graphs in the screened pool; a run cycles through it batch by
/// batch, so every batch holds distinct graphs.
pub const POOL_GRAPHS: usize = 4_096;
/// Percentile of the end-to-end tail: p95, because a 10 s run screens
/// from ~400 batches on a slow host (too few for p99) to ~1800 on a fast one.
const TAIL_PCT: f64 = 95.0;
/// One batch in this many (plus the first) is re-checked serially.
const CHECK_EVERY: u64 = 16;
/// Graphs of the fixed set the out-of-band F1 is measured on, and the seed
/// that draws them: the same for every workload seed, so the figure moves
/// only when the classifier's verdicts do.
const QUALITY_GRAPHS: usize = 2_048;
const QUALITY_SEED: u64 = 0x51ee_d0f1;
/// Graphs re-timed layer by layer in the traced run.
const ATTRIBUTION_SAMPLE: usize = 512;

pub struct State {
    classifier: Itgnn,
    embedder: Itgnn,
    drift: DriftDetector,
    graphs: Vec<InteractionGraph>,
    /// Graphs the out-of-band F1 is measured on.
    quality: Vec<InteractionGraph>,
    seed: u64,
}

pub fn setup(fixture: &Fixture, seed: u64) -> State {
    let source = GraphSource::new(&fixture.corpus);
    State {
        classifier: fixture.copy_model(&fixture.classifier),
        embedder: fixture.copy_model(&fixture.embedder),
        drift: fixture.drift.clone(),
        graphs: screen_graphs(&source, seed, POOL_GRAPHS),
        quality: screen_graphs(&source, QUALITY_SEED, QUALITY_GRAPHS),
        seed,
    }
}

/// Seeded choice of the batches the correctness check re-runs serially.
fn checked(seed: u64, batch: u64) -> bool {
    batch == 0
        || ((batch ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32).is_multiple_of(CHECK_EVERY)
}

/// The serial reference: per-graph `embed` and `drift_degree`.
fn serial_check(
    state: &State,
    batch: &[InteractionGraph],
    rows: &Matrix,
    hits: &[(usize, f64)],
) -> Result<(), String> {
    let mut want_hits = Vec::new();
    for (i, g) in batch.iter().enumerate() {
        let e = ContrastiveTrainer::embed(&state.embedder, &PreparedGraph::from_graph(g));
        let row = rows.row(i);
        if e.len() != row.len() || e.iter().zip(row).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return Err(format!("embed_all row {i} differs from a serial embed"));
        }
        let degree = state.drift.drift_degree(&e);
        if degree > state.drift.threshold {
            want_hits.push((i, degree));
        }
    }
    let same = want_hits.len() == hits.len()
        && want_hits
            .iter()
            .zip(hits)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "detect returned {hits:?}, serial drift_degree gives {want_hits:?}"
        ))
    }
}

pub fn run(state: &State, seconds: f64, rec: &Recorder) -> RunResult {
    let mut result = RunResult::default();
    let n_batches = (state.graphs.len() / BATCH) as u64;
    let mut ops = OpTimes::default();
    let mut screened = 0u64;
    let mut drifting = 0usize;
    let mut checks = 0usize;
    let start = Instant::now();
    let mut b = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let at = ((b % n_batches) as usize) * BATCH;
        let batch = &state.graphs[at..at + BATCH];
        let stamp = Stamp::now();
        let t0 = Instant::now();
        let prepared = PreparedGraph::prepare_all(batch);
        let t1 = Instant::now();
        let rows = ContrastiveTrainer::embed_all(&state.embedder, &prepared);
        let t2 = Instant::now();
        let hits = state.drift.detect(&rows);
        let t3 = Instant::now();
        ops.record(stamp.elapsed(), BATCH as f64);
        rec.span("screen.batch", b, None, t0, t3);
        rec.span("screen.prepare_all_us", b, Some("screen.batch"), t0, t1);
        rec.span("screen.embed_all_us", b, Some("screen.batch"), t1, t2);
        rec.span("screen.detect_us", b, Some("screen.batch"), t2, t3);
        screened += BATCH as u64;
        drifting += hits.len();
        // a non-finite embedding would be quarantined on the serving path
        result.failed += (0..rows.rows())
            .filter(|&i| rows.row(i).iter().any(|v| !v.is_finite()))
            .count() as u64;
        if checked(state.seed, b) {
            checks += 1;
            if let Err(why) = serial_check(state, batch, &rows, &hits) {
                result.problem(format!("batch {b}: {why}"));
            }
        }
        b += 1;
    }
    result.attempted = screened;
    let f = ops.figures(TAIL_PCT);
    result.e2e.set_ops(&f);

    // quality guard: the classifier's weighted F1 over the fixed quality
    // set against oracle labels (out of band; the screen never classifies)
    let truth: Vec<usize> = state
        .quality
        .iter()
        .map(|g| g.label.map_or(0, |l| l.class()))
        .collect();
    let pred = par::ordered_map(state.quality.len(), |i| {
        ClassifierTrainer::predict(
            &state.classifier,
            &PreparedGraph::from_graph(&state.quality[i]),
        )
    });
    result
        .e2e
        .set("verdict_f1", "ratio", crate::weighted_f1(&truth, &pred));
    eprintln!(
        "[glintbench] drift_screen: {}; {drifting} drifting ({:.2}%); {checks} batches re-checked serially",
        f.describe(&format!("batches of {BATCH}"), "graphs"),
        100.0 * drifting as f64 / screened.max(1) as f64
    );

    if rec.on() {
        let models = Models {
            classifier: &state.classifier,
            embedder: &state.embedder,
            drift: &state.drift,
        };
        let sample = &state.graphs[..ATTRIBUTION_SAMPLE.min(state.graphs.len())];
        layers::attribute_embed(rec, &models, sample);
        layers::tensor_counters(
            sample,
            |g| {
                let e = ContrastiveTrainer::embed(&state.embedder, &PreparedGraph::from_graph(g));
                std::hint::black_box(state.drift.drift_degree(&e));
            },
            &mut result.layers,
        );
    }
    result
}
