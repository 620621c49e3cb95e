//! Salient-node attribution for threat warnings (the Figure 3a red nodes).
//!
//! The paper points to PGExplainer/SubgraphX-style tools; this reproduction
//! uses deletion-based attribution, which needs no extra model: a node's
//! importance is how much the threat probability drops when the node is
//! removed from the graph.

use glint_gnn::batch::PreparedGraph;
use glint_gnn::models::GraphModel;
use glint_gnn::trainer::ClassifierTrainer;
use glint_graph::InteractionGraph;

/// Per-node importance scores for the threat prediction, descending.
pub fn node_importance(model: &dyn GraphModel, g: &InteractionGraph) -> Vec<(usize, f64)> {
    let base = ClassifierTrainer::predict_proba(model, &PreparedGraph::from_graph(g));
    importance_from_base(model, g, base)
}

/// [`node_importance`] against a threat probability the caller already
/// holds for the whole of `g` (`base`, from the same `model`): the n
/// deletion forwards only. The detector passes its verdict's probability
/// here, so a flagged verdict costs n forwards for its causes, not n + 1.
pub(crate) fn importance_from_base(
    model: &dyn GraphModel,
    g: &InteractionGraph,
    base: f32,
) -> Vec<(usize, f64)> {
    let base = f64::from(base);
    let mut scores: Vec<(usize, f64)> = (0..g.n_nodes())
        .map(|drop| {
            if g.n_nodes() <= 1 {
                return (drop, 0.0);
            }
            let reduced = remove_node(g, drop);
            let p = ClassifierTrainer::predict_proba(model, &PreparedGraph::from_graph(&reduced))
                as f64;
            (drop, base - p)
        })
        .collect();
    rank_desc(&mut scores);
    scores
}

/// Sort `(node, importance)` pairs by descending importance under the IEEE
/// total order — deterministic even when a degenerate model yields NaN
/// importances (NaN ranks first, so broken attributions are visible rather
/// than panicking).
fn rank_desc(scores: &mut [(usize, f64)]) {
    scores.sort_by(|a, b| b.1.total_cmp(&a.1));
}

/// The top-k most influential nodes (the warning's "potential causes").
pub fn top_causes(model: &dyn GraphModel, g: &InteractionGraph, k: usize) -> Vec<usize> {
    take_top(node_importance(model, g), k)
}

/// [`top_causes`] against an already-known base probability (see
/// [`importance_from_base`]).
pub(crate) fn top_causes_from_base(
    model: &dyn GraphModel,
    g: &InteractionGraph,
    base: f32,
    k: usize,
) -> Vec<usize> {
    take_top(importance_from_base(model, g, base), k)
}

fn take_top(ranked: Vec<(usize, f64)>, k: usize) -> Vec<usize> {
    ranked.into_iter().take(k).map(|(i, _)| i).collect()
}

/// `g` without node `drop`: nodes after it shift down by one, and edges
/// touching it vanish.
fn remove_node(g: &InteractionGraph, drop: usize) -> InteractionGraph {
    let nodes = (0..g.n_nodes())
        .filter(|&i| i != drop)
        .map(|i| g.node(i).clone())
        .collect();
    let remap = |i: usize| if i < drop { i } else { i - 1 };
    let mut out = InteractionGraph::new(nodes);
    for &(u, v, kind) in g.edges() {
        if u != drop && v != drop {
            out.add_edge(remap(u), remap(v), kind);
        }
    }
    if let Some(l) = g.label {
        out.label = Some(l);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_graph::graph::{EdgeKind, GraphLabel, Node};
    use glint_rules::{Platform, RuleId};

    fn graph(n: usize) -> InteractionGraph {
        let nodes: Vec<Node> = (0..n)
            .map(|i| Node {
                rule_id: RuleId(i as u32),
                platform: Platform::Ifttt,
                features: vec![i as f32 * 0.1 + 0.1; 4],
            })
            .collect();
        let mut g = InteractionGraph::new(nodes);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, EdgeKind::ActionTrigger);
        }
        g.with_label(GraphLabel::Threat)
    }

    #[test]
    fn remove_node_rewires_edges() {
        let g = graph(4);
        let r = remove_node(&g, 1);
        assert_eq!(r.n_nodes(), 3);
        // edges 0→1 and 1→2 vanish; 2→3 becomes 1→2 in the new indexing
        assert_eq!(r.n_edges(), 1);
        assert_eq!(r.edges()[0].0, 1);
        assert_eq!(r.edges()[0].1, 2);
    }

    #[test]
    fn importance_is_a_permutation_of_nodes() {
        use glint_gnn::models::{GcnModel, ModelConfig};
        let g = graph(5);
        let model = GcnModel::new(
            4,
            ModelConfig {
                hidden: 8,
                embed: 8,
                seed: 1,
            },
        );
        let imp = node_importance(&model, &g);
        let mut idx: Vec<usize> = imp.iter().map(|(i, _)| *i).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
        let top = top_causes(&model, &g, 2);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn single_node_graph_scores_zero() {
        use glint_gnn::models::{GcnModel, ModelConfig};
        let g = graph(1);
        let model = GcnModel::new(
            4,
            ModelConfig {
                hidden: 8,
                embed: 8,
                seed: 2,
            },
        );
        let imp = node_importance(&model, &g);
        assert_eq!(imp, vec![(0, 0.0)]);
    }

    #[test]
    fn rank_desc_is_total_on_nan_importances() {
        let mut scores = vec![(0, 0.5), (1, f64::NAN), (2, 0.9), (3, f64::NEG_INFINITY)];
        rank_desc(&mut scores);
        // NaN outranks +inf under total_cmp, so a broken attribution surfaces
        // at the top of the cause list instead of panicking the sort.
        assert_eq!(
            scores.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![1, 2, 0, 3]
        );
    }
}
