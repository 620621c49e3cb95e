//! Out-of-band layer attribution: each layer of the detector's serving
//! path timed as its own call into the public API (`PreparedGraph`,
//! `ContrastiveTrainer::embed`, `DriftDetector::drift_degree`,
//! `ClassifierTrainer::predict_proba`, `explain::top_causes`) next to the
//! whole `GlintDetector::assess`, plus the tensor counters one assessment
//! drives and the classifier forwards one explanation costs.

use std::time::Instant;

use glint_core::drift::DriftDetector;
use glint_core::explain;
use glint_core::GlintDetector;
use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::Itgnn;
use glint_gnn::trainer::{ClassifierTrainer, ContrastiveTrainer};
use glint_graph::InteractionGraph;

use crate::report::Metrics;
use crate::spans::Recorder;

pub type Detector = GlintDetector<Itgnn, Itgnn>;

/// Causes listed per warning (the detector's default).
const TOP_K: usize = 3;
/// Assessments the tensor counters are averaged over.
const COUNTER_SAMPLE: usize = 64;

/// Node-count bucket of a graph: 2–4, 5–12 or 13–24 (and beyond).
pub fn embed_layer(n: usize) -> &'static str {
    match n {
        0..=4 => "gnn.embed_us.n2_4",
        5..=12 => "gnn.embed_us.n5_12",
        _ => "gnn.embed_us.n13_24",
    }
}

pub fn classify_layer(n: usize) -> &'static str {
    match n {
        0..=4 => "gnn.classify_us.n2_4",
        5..=12 => "gnn.classify_us.n5_12",
        _ => "gnn.classify_us.n13_24",
    }
}

/// The models the detector owns, as separate handles.
pub struct Models<'a> {
    pub classifier: &'a Itgnn,
    pub embedder: &'a Itgnn,
    pub drift: &'a DriftDetector,
}

/// Time every layer on every graph; returns the flagged share.
pub fn attribute(
    rec: &Recorder,
    detector: &Detector,
    models: &Models,
    graphs: &[InteractionGraph],
) -> f64 {
    let mut flagged = 0usize;
    for (i, g) in graphs.iter().enumerate() {
        let req = i as u64;
        let start = Instant::now();
        let detection = detector.assess(g.clone());
        let end = Instant::now();
        let outcome = if detection.warning.is_some() {
            flagged += 1;
            "detector.assess_flagged_us"
        } else {
            "detector.assess_full_us"
        };
        rec.span(outcome, req, None, start, end);

        let n = g.n_nodes();
        let prepared = rec.time("gnn.prepare_us", req, None, || PreparedGraph::from_graph(g));
        let embedding = rec.time(embed_layer(n), req, None, || {
            ContrastiveTrainer::embed(models.embedder, &prepared)
        });
        rec.time("drift.degree_us", req, None, || {
            models.drift.drift_degree(&embedding)
        });
        rec.time(classify_layer(n), req, None, || {
            ClassifierTrainer::predict_proba(models.classifier, &prepared)
        });
        if detection.warning.is_some() {
            rec.time("explain.top_causes_us", req, None, || {
                explain::top_causes(models.classifier, g, TOP_K)
            });
        }
    }
    flagged as f64 / graphs.len().max(1) as f64
}

/// The embedding half of [`attribute`] (the drift screen's layers):
/// prepare, embed and drift degree per graph.
pub fn attribute_embed(rec: &Recorder, models: &Models, graphs: &[InteractionGraph]) {
    for (i, g) in graphs.iter().enumerate() {
        let req = i as u64;
        let prepared = rec.time("gnn.prepare_us", req, None, || PreparedGraph::from_graph(g));
        let embedding = rec.time(embed_layer(g.n_nodes()), req, None, || {
            ContrastiveTrainer::embed(models.embedder, &prepared)
        });
        rec.time("drift.degree_us", req, None, || {
            models.drift.drift_degree(&embedding)
        });
    }
}

/// Tensor counters per item of work (glint-trace's own counters, armed
/// only for this pass), averaged over the first graphs.
pub fn tensor_counters(
    graphs: &[InteractionGraph],
    work: impl Fn(&InteractionGraph),
    m: &mut Metrics,
) {
    let sample: Vec<&InteractionGraph> = graphs.iter().take(COUNTER_SAMPLE).collect();
    if sample.is_empty() {
        return;
    }
    glint_trace::set_enabled(true);
    glint_trace::reset();
    for g in &sample {
        work(g);
    }
    let per = |name: &str| glint_trace::counter_value(name) as f64 / sample.len() as f64;
    for (name, unit) in [
        ("tensor.matmul.calls", "count"),
        ("tensor.matmul.flops", "flop"),
        ("tensor.spmm.calls", "count"),
        ("tensor.spmm.flops", "flop"),
        ("tensor.alloc.matrices", "count"),
        ("infer.pool.misses", "count"),
    ] {
        m.set(name, unit, per(name));
    }
    glint_trace::reset();
    glint_trace::set_enabled(false);
}

/// Classifier forwards one explanation costs, measured as the
/// explanation's matmul calls over one forward's, on flagged graphs.
pub fn explain_forwards(models: &Models, graphs: &[InteractionGraph], m: &mut Metrics) {
    glint_trace::set_enabled(true);
    let mut forwards = Vec::new();
    for g in graphs {
        let prepared = PreparedGraph::from_graph(g);
        glint_trace::reset();
        let p = ClassifierTrainer::predict_proba(models.classifier, &prepared);
        let one = glint_trace::counter_value("tensor.matmul.calls");
        let embedding = ContrastiveTrainer::embed(models.embedder, &prepared);
        if !(p > 0.5 || models.drift.is_drifting(&embedding)) || one == 0 {
            continue;
        }
        glint_trace::reset();
        explain::top_causes(models.classifier, g, TOP_K);
        forwards.push(glint_trace::counter_value("tensor.matmul.calls") as f64 / one as f64);
        if forwards.len() >= COUNTER_SAMPLE {
            break;
        }
    }
    glint_trace::reset();
    glint_trace::set_enabled(false);
    m.set("explain.forwards", "count", crate::stats::mean(&forwards));
}
