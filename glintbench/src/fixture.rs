//! The paper-workload fixture: a seeded corpus, a trained default
//! `ItgnnConfig` classifier (64-d hidden, 3 scales, 300/512-d text
//! features), a contrastively trained embedder of the same shape and a
//! fitted `DriftDetector`, covering all five platform types.
//!
//! The fixture is a pure function of [`FIXTURE_SEED`]: the workload seed
//! only drives the inputs, so every workload and every seed scores against
//! the same trained models.

use std::time::Instant;

use glint_core::construction::OfflineBuilder;
use glint_core::drift::DriftDetector;
use glint_gnn::batch::{GraphSchema, PreparedGraph};
use glint_gnn::models::{GraphModel, Itgnn, ItgnnConfig};
use glint_gnn::trainer::{ClassifierTrainer, ContrastiveTrainer, TrainConfig};
use glint_rules::{CorpusConfig, CorpusGenerator, Platform, Rule};

/// Seed of the corpus, the training set and both models.
pub const FIXTURE_SEED: u64 = 0x6117;
/// Labelled five-platform graphs the models are trained on.
pub const TRAIN_GRAPHS: usize = 128;
/// Largest training graph.
pub const TRAIN_MAX_NODES: usize = 12;
/// Epochs for each trainer.
pub const TRAIN_EPOCHS: usize = 8;
/// Graphs per optimizer step; the per-graph gradients of a step are
/// computed across threads.
pub const TRAIN_BATCH: usize = 4;

/// Wall time of each fixture part, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixtureTimes {
    pub corpus_s: f64,
    pub dataset_s: f64,
    pub classifier_s: f64,
    pub contrastive_s: f64,
    pub drift_fit_s: f64,
}

pub struct Fixture {
    /// The synthetic multi-platform rule corpus every input is drawn from.
    pub corpus: Vec<Rule>,
    /// Node types of the model schema: all five platforms.
    pub types: Vec<(Platform, usize)>,
    pub classifier: Itgnn,
    pub embedder: Itgnn,
    pub drift: DriftDetector,
    pub times: FixtureTimes,
}

/// The corpus configuration shared by the fixture and the input generators.
pub fn corpus_config() -> CorpusConfig {
    CorpusConfig {
        scale: 0.03,
        per_platform_cap: 2_000,
        seed: FIXTURE_SEED,
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

impl Fixture {
    pub fn build() -> Fixture {
        let mut times = FixtureTimes::default();

        let t = Instant::now();
        let corpus = CorpusGenerator::generate_corpus(&corpus_config());
        times.corpus_s = secs(t);

        let t = Instant::now();
        let builder = OfflineBuilder::new(corpus.clone(), FIXTURE_SEED);
        let mut dataset =
            builder.build_dataset(Platform::all(), TRAIN_GRAPHS, TRAIN_MAX_NODES, true);
        dataset.oversample_threats(FIXTURE_SEED);
        let prepared = PreparedGraph::prepare_all(dataset.graphs());
        let mut schema = GraphSchema::infer(dataset.iter());
        // a platform absent from the sampled training graphs still gets its
        // text-feature width, so every platform is scorable
        for &p in Platform::all() {
            if schema.dim_of(p).is_none() {
                schema.types.push((p, if p.is_voice() { 512 } else { 300 }));
            }
        }
        schema.types.sort_by_key(|(p, _)| p.type_index());
        times.dataset_s = secs(t);

        let model_cfg = ItgnnConfig {
            seed: FIXTURE_SEED,
            ..ItgnnConfig::default()
        };
        let train_cfg = TrainConfig {
            epochs: TRAIN_EPOCHS,
            seed: FIXTURE_SEED,
            batch_size: TRAIN_BATCH,
            ..TrainConfig::default()
        };

        let t = Instant::now();
        let mut classifier = Itgnn::new(&schema.types, model_cfg.clone());
        ClassifierTrainer::new(train_cfg.clone()).train(&mut classifier, &prepared);
        times.classifier_s = secs(t);

        let t = Instant::now();
        let mut embedder = Itgnn::new(&schema.types, model_cfg);
        ContrastiveTrainer::new(train_cfg).train(&mut embedder, &prepared);
        times.contrastive_s = secs(t);

        let t = Instant::now();
        let embeddings = ContrastiveTrainer::embed_all(&embedder, &prepared);
        let labels: Vec<usize> = prepared.iter().map(|g| g.label.unwrap_or(0)).collect();
        let drift = DriftDetector::fit(&embeddings, &labels);
        times.drift_fit_s = secs(t);

        Fixture {
            corpus,
            types: schema.types,
            classifier,
            embedder,
            drift,
            times,
        }
    }

    /// Total fixture build time.
    pub fn build_s(&self) -> f64 {
        let t = &self.times;
        t.corpus_s + t.dataset_s + t.classifier_s + t.contrastive_s + t.drift_fit_s
    }

    /// A bitwise copy of a trained model (the detector owns its models; the
    /// workloads that need a second handle get one of these).
    pub fn copy_model(&self, model: &Itgnn) -> Itgnn {
        let mut copy = Itgnn::new(
            &self.types,
            ItgnnConfig {
                seed: FIXTURE_SEED,
                ..ItgnnConfig::default()
            },
        );
        copy.params_mut()
            .copy_exact_from(model.params())
            .unwrap_or_else(|e| panic!("fixture model copy: {e:?}"));
        copy
    }

    /// FNV-1a over every parameter bit of both models and the drift
    /// detector's threshold: equal fingerprints mean bitwise-equal fixtures.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bits: u64| {
            h ^= bits;
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for model in [&self.classifier, &self.embedder] {
            for (_, m) in model.params().iter() {
                for &v in m.data() {
                    eat(u64::from(v.to_bits()));
                }
            }
        }
        eat(self.drift.threshold.to_bits());
        eat(self.corpus.len() as u64);
        h
    }
}
