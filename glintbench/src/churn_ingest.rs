//! `churn_ingest`: writes beside reads. `ChurnGenerator` drives rule
//! add/remove deltas over about 10⁴ homes; each delta runs
//! `IncrementalPipeline::apply` → `GlintDetector::apply_delta` → `assess`
//! on the home's fresh graph, with the paper's 300/512-d text features
//! (`node_features`) and the trained fixture. Dirty homes are re-embedded
//! (`refresh`) and the touched home persisted into a `ShardedStore` on the
//! harness cadence; a delta's latency includes those when they fire.

use std::path::{Path, PathBuf};
use std::time::Instant;

use glint_core::construction::node_features;
use glint_core::incremental::{home_graph, mine_all, IncrementalPipeline, OracleMiner};
use glint_core::{oracle, DriftDetector};
use glint_gnn::models::Itgnn;
use glint_graph::shard::ShardedStore;
use glint_graph::InteractionGraph;
use glint_rules::Rule;
use glint_testbed::{ChurnConfig, ChurnGenerator};

use crate::cpu::Stamp;
use crate::fixture::Fixture;
use crate::inputs::churn_config;
use crate::layers::{self, Detector, Models};
use crate::spans::Recorder;
use crate::stats::{mean, summarize, OpTimes};
use crate::RunResult;

/// Percentile of the end-to-end tail.
const TAIL_PCT: f64 = 99.0;
/// Homes whose incremental graph is rebuilt from scratch and compared.
const CHECKED_HOMES: usize = 64;
/// Recent home graphs re-assessed layer by layer in the traced run.
const ATTRIBUTION_SAMPLE: usize = 256;

pub struct State {
    cfg: ChurnConfig,
    generator: ChurnGenerator,
    pipeline: IncrementalPipeline,
    detector: Detector,
    classifier: Itgnn,
    embedder: Itgnn,
    drift: DriftDetector,
    store: ShardedStore,
    shard_dir: PathBuf,
    /// Churn deltas ingested so far (drives the refresh/persist cadence).
    seen: u64,
    pub bootstrap_s: f64,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.shard_dir);
    }
}

/// Build the fleet: every bootstrap add through `apply` + `apply_delta`,
/// then one `refresh` so embeddings are current.
pub fn setup(fixture: &Fixture, seed: u64, shard_dir: &Path) -> Result<State, String> {
    let _ = std::fs::remove_dir_all(shard_dir);
    let cfg = churn_config(seed, Some(shard_dir.to_path_buf()));
    let store = ShardedStore::open_or_create(shard_dir).map_err(|e| format!("shard store: {e}"))?;
    let mut generator = ChurnGenerator::new(cfg.clone());
    let mut pipeline = IncrementalPipeline::new();
    let mut detector = Detector::new(
        Vec::new(),
        fixture.copy_model(&fixture.classifier),
        fixture.copy_model(&fixture.embedder),
        fixture.drift.clone(),
    );
    let embedder = fixture.copy_model(&fixture.embedder);
    let start = Instant::now();
    for _ in 0..generator.bootstrap_len() {
        let Some(ev) = generator.next() else { break };
        pipeline
            .apply(&ev.delta, &node_features)
            .map_err(|e| format!("bootstrap delta rejected: {e}"))?;
        detector.apply_delta(&ev.delta);
    }
    pipeline.refresh(&embedder);
    let bootstrap_s = start.elapsed().as_secs_f64();
    Ok(State {
        cfg,
        generator,
        pipeline,
        detector,
        classifier: fixture.copy_model(&fixture.classifier),
        embedder,
        drift: fixture.drift.clone(),
        store,
        shard_dir: shard_dir.to_path_buf(),
        seen: 0,
        bootstrap_s,
    })
}

fn oracle_label(rules: &[Rule]) -> usize {
    let refs: Vec<&Rule> = rules.iter().collect();
    usize::from(oracle::is_vulnerable(&refs))
}

pub fn run(state: &mut State, seconds: f64, rec: &Recorder) -> RunResult {
    let mut result = RunResult::default();
    let mut ops = OpTimes::default();
    let (mut truth, mut pred) = (Vec::new(), Vec::new());
    let (mut remined, mut neighborhood, mut reembedded) = (Vec::new(), Vec::new(), Vec::new());
    let mut shard_bytes = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut recent: Vec<InteractionGraph> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let Some(ev) = state.generator.next() else {
            break;
        };
        let req = state.seen;
        let home = ev.delta.home;
        let features = |r: &Rule| {
            rec.time(
                "nlp.node_features_us",
                req,
                Some("incremental.apply_us"),
                || node_features(r),
            )
        };
        let stamp = Stamp::now();
        let t0 = Instant::now();
        let applied = rec.time("incremental.apply_us", req, Some("churn.delta"), || {
            state.pipeline.apply(&ev.delta, &features)
        });
        let report = match applied {
            Ok(report) => report,
            Err(e) => {
                result.attempted += 1;
                result.failed += 1;
                result.problem(format!("delta {req} rejected: {e}"));
                continue;
            }
        };
        rec.time("detector.apply_delta_us", req, Some("churn.delta"), || {
            state.detector.apply_delta(&ev.delta)
        });
        let graph = state
            .pipeline
            .home(home)
            .and_then(|s| s.graph().cloned())
            .unwrap_or_else(|| InteractionGraph::new(Vec::new()));
        let assess_start = Instant::now();
        let detection = state.detector.assess(graph);
        let assess_end = Instant::now();
        let assess_layer = if detection.warning.is_some() {
            "detector.assess_flagged_us"
        } else {
            "detector.assess_full_us"
        };
        rec.span(
            assess_layer,
            req,
            Some("churn.delta"),
            assess_start,
            assess_end,
        );
        state.seen += 1;
        if state.seen.is_multiple_of(state.cfg.refresh_every) {
            let refreshed = rec.time("incremental.refresh_us", req, Some("churn.delta"), || {
                state.pipeline.refresh(&state.embedder)
            });
            reembedded.push(refreshed.reembedded as f64);
        }
        let persist = state.seen.is_multiple_of(state.cfg.persist_every);
        if persist {
            let saved = rec.time("shard.save_us", req, Some("churn.delta"), || {
                state.pipeline.persist_home(&mut state.store, home)
            });
            if let Err(e) = saved {
                result.failed += 1;
                result.problem(format!("persisting home {home} failed: {e}"));
            }
        }
        let t1 = Instant::now();
        ops.record(stamp.elapsed(), 1.0);
        rec.span("churn.delta", req, None, t0, t1);

        result.attempted += 1;
        if detection.degradation.is_degraded() {
            result.failed += 1;
        }
        let rules = state.pipeline.home(home).map(|s| s.rules()).unwrap_or(&[]);
        truth.push(oracle_label(rules));
        pred.push(usize::from(detection.is_threat));
        remined.push(report.remined_pairs as f64);
        neighborhood.push(report.neighborhood as f64);
        if persist && rec.on() {
            if let Some(entry) = state.store.entry(home) {
                let bytes =
                    std::fs::metadata(state.store.dir().join(&entry.file)).map_or(0, |m| m.len());
                shard_bytes.push(bytes as f64);
            }
        }
        if touched.len() < CHECKED_HOMES / 2 && !touched.contains(&home) {
            touched.push(home);
        }
        if rec.on() && !detection.graph.nodes().is_empty() {
            recent.push(detection.graph);
            if recent.len() > ATTRIBUTION_SAMPLE {
                recent.remove(0);
            }
        }
    }
    let f = ops.figures(TAIL_PCT);
    result.e2e.set_ops(&f);
    result
        .e2e
        .set("verdict_f1", "ratio", crate::weighted_f1(&truth, &pred));
    eprintln!(
        "[glintbench] churn_ingest: {}; {} threats, {} homes live",
        f.describe("deltas", "deltas"),
        pred.iter().sum::<usize>(),
        state.pipeline.n_homes()
    );

    // correctness: a seeded sample of homes (half touched by this run)
    // rebuilt from scratch must equal the incremental graph bit for bit
    let mut homes = touched;
    let mut pick = state.cfg.seed;
    while homes.len() < CHECKED_HOMES {
        pick = pick
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        homes.push((pick >> 33) % state.cfg.homes);
    }
    for home in homes {
        let Some(s) = state.pipeline.home(home) else {
            continue;
        };
        let batch = home_graph(
            s.rules(),
            &mine_all(&OracleMiner, s.rules()),
            &node_features,
        );
        if batch.as_ref() != s.graph() {
            result.problem(format!(
                "home {home}: incremental graph differs from batch home_graph"
            ));
        }
    }
    let deployed: usize = state.pipeline.homes().map(|(_, s)| s.rules().len()).sum();
    if deployed != state.detector.rules().len() {
        result.problem(format!(
            "detector holds {} rules, the pipeline {deployed}",
            state.detector.rules().len()
        ));
    }

    if rec.on() {
        let m = &mut result.layers;
        m.set("incremental.remined_pairs", "count", mean(&remined));
        m.set("incremental.neighborhood", "count", mean(&neighborhood));
        m.set("incremental.reembedded", "count", mean(&reembedded));
        m.set("shard.bytes", "bytes", summarize(&shard_bytes).p50);
        let models = Models {
            classifier: &state.classifier,
            embedder: &state.embedder,
            drift: &state.drift,
        };
        let share = layers::attribute(rec, &state.detector, &models, &recent);
        m.set("detector.flagged_share", "ratio", share);
        layers::tensor_counters(&recent, |g| drop(state.detector.assess(g.clone())), m);
        layers::explain_forwards(&models, &recent, m);
    }
    result
}
