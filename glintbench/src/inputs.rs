//! Seeded input generators. Every workload input is a pure function of the
//! workload seed (plus the fixed fixture corpus): the serve and screen graph
//! sets and the churn trace.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;

use glint_core::construction::node_features;
use glint_core::oracle;
use glint_graph::builder::GraphBuilder;
use glint_graph::{GraphLabel, InteractionGraph};
use glint_rules::{Platform, Rule};
use glint_testbed::ChurnConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const IFTTT: &[Platform] = &[Platform::Ifttt];
const SMARTTHINGS: &[Platform] = &[Platform::SmartThings];
const HETERO: &[Platform] = &[Platform::Ifttt, Platform::SmartThings, Platform::Alexa];
const FIVE: &[Platform] = &[
    Platform::Ifttt,
    Platform::SmartThings,
    Platform::Alexa,
    Platform::GoogleAssistant,
    Platform::HomeAssistant,
];

/// The Table 3 dataset families and their paper graph counts: labelled
/// IFTTT, labelled SmartThings, labelled IFTTT+SmartThings+Alexa, and the
/// five-platform pool.
pub const TABLE3_MIX: [(&[Platform], usize); 4] = [
    (IFTTT, 6_000),
    (SMARTTHINGS, 165),
    (HETERO, 12_758),
    (FIVE, 19_440),
];

/// Node-count range of a `serve_mixed` request graph.
pub const SERVE_NODES: (usize, usize) = (2, 12);
/// Node-count range of a `drift_screen` graph.
pub const SCREEN_NODES: (usize, usize) = (8, 24);

/// Derive an independent stream seed for one input family.
fn stream(seed: u64, family: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ family.wrapping_mul(0xd1b5_4a32_d192_ed03)
}

/// Samples oracle-labelled interaction graphs from the corpus with the
/// paper's text features, embedding each rule once.
pub struct GraphSource<'a> {
    corpus: &'a [Rule],
    by_id: BTreeMap<u32, &'a Rule>,
    features: RefCell<BTreeMap<u32, Vec<f32>>>,
}

impl<'a> GraphSource<'a> {
    pub fn new(corpus: &'a [Rule]) -> Self {
        Self {
            corpus,
            by_id: corpus.iter().map(|r| (r.id.0, r)).collect(),
            features: RefCell::new(BTreeMap::new()),
        }
    }

    fn features(&self, rule: &Rule) -> Vec<f32> {
        self.features
            .borrow_mut()
            .entry(rule.id.0)
            .or_insert_with(|| node_features(rule))
            .clone()
    }

    /// The oracle label of a graph built from corpus rules.
    pub fn label(&self, g: &InteractionGraph) -> GraphLabel {
        let members: Vec<&Rule> = g
            .nodes()
            .iter()
            .filter_map(|n| self.by_id.get(&n.rule_id.0).copied())
            .collect();
        if oracle::is_vulnerable(&members) {
            GraphLabel::Threat
        } else {
            GraphLabel::Normal
        }
    }

    /// `n` labelled graphs over the given platforms.
    pub fn sample(
        &self,
        platforms: &[Platform],
        n: usize,
        nodes: (usize, usize),
        seed: u64,
    ) -> Vec<InteractionGraph> {
        let pool: Vec<Rule> = self
            .corpus
            .iter()
            .filter(|r| platforms.contains(&r.platform))
            .cloned()
            .collect();
        let mut builder = GraphBuilder::new(&pool, seed);
        let feature_fn = |r: &Rule| self.features(r);
        (0..n)
            .map(|_| {
                let g = builder.sample_graph(nodes.0, nodes.1, &feature_fn);
                let label = self.label(&g);
                g.with_label(label)
            })
            .collect()
    }
}

/// Split `n` over `weights` by largest remainder.
pub fn apportion(n: usize, weights: &[usize]) -> Vec<usize> {
    let total: usize = weights.iter().sum();
    let mut counts: Vec<usize> = weights.iter().map(|w| n * w / total).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((n * weights[i]) % total));
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// `n` request graphs of 2–12 nodes, Table-3-proportioned over the four
/// dataset families, oracle-labelled, in a seeded interleaving.
pub fn serve_graphs(source: &GraphSource, seed: u64, n: usize) -> Vec<InteractionGraph> {
    let weights: Vec<usize> = TABLE3_MIX.iter().map(|(_, w)| *w).collect();
    let mut graphs = Vec::with_capacity(n);
    for (family, (&(platforms, _), count)) in
        TABLE3_MIX.iter().zip(apportion(n, &weights)).enumerate()
    {
        graphs.extend(source.sample(platforms, count, SERVE_NODES, stream(seed, family as u64)));
    }
    graphs.shuffle(&mut StdRng::seed_from_u64(stream(seed, 100)));
    graphs
}

/// `n` five-platform pool graphs of 8–24 nodes for the §4.7 screen.
pub fn screen_graphs(source: &GraphSource, seed: u64, n: usize) -> Vec<InteractionGraph> {
    source.sample(FIVE, n, SCREEN_NODES, stream(seed, 200))
}

/// Homes in the churn fleet.
pub const CHURN_HOMES: u64 = 10_000;
/// Upper bound on churn deltas one run may draw (the run stops on time).
pub const CHURN_MAX_DELTAS: u64 = 200_000;

/// The churn harness shape for one seed: about 10⁴ homes, three rules each
/// at bootstrap, refresh every 256 deltas and a shard persist every 64.
pub fn churn_config(seed: u64, shard_dir: Option<PathBuf>) -> ChurnConfig {
    ChurnConfig {
        homes: CHURN_HOMES,
        deltas: CHURN_MAX_DELTAS,
        bootstrap_rules: 3,
        max_rules_per_home: 8,
        refresh_every: 256,
        persist_every: 64,
        shard_dir,
        seed: stream(seed, 400),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::corpus_config;
    use glint_rules::CorpusGenerator;
    use glint_testbed::churn_trace;

    fn corpus() -> Vec<Rule> {
        CorpusGenerator::generate_corpus(&corpus_config())
    }

    fn json<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(&serde_json::to_value(v)).expect("serializes")
    }

    #[test]
    fn same_seed_same_graph_sets() {
        let corpus = corpus();
        let a = GraphSource::new(&corpus);
        let b = GraphSource::new(&corpus);
        let serve_a = serve_graphs(&a, 11, 60);
        assert_eq!(json(&serve_a), json(&serve_graphs(&b, 11, 60)));
        assert_ne!(json(&serve_a), json(&serve_graphs(&b, 12, 60)));
        assert!(serve_a.iter().all(|g| (2..=12).contains(&g.n_nodes())));
        assert!(serve_a.iter().all(|g| g.label.is_some()));
        let screen_a = screen_graphs(&a, 11, 12);
        assert_eq!(json(&screen_a), json(&screen_graphs(&b, 11, 12)));
        assert!(screen_a.iter().all(|g| (8..=24).contains(&g.n_nodes())));
    }

    #[test]
    fn same_seed_same_churn_trace() {
        let small = |seed| ChurnConfig {
            homes: 30,
            deltas: 200,
            ..churn_config(seed, None)
        };
        assert_eq!(json(&churn_trace(small(5))), json(&churn_trace(small(5))));
        assert_ne!(json(&churn_trace(small(5))), json(&churn_trace(small(6))));
    }

    #[test]
    fn apportion_is_exact() {
        let w: Vec<usize> = TABLE3_MIX.iter().map(|(_, w)| *w).collect();
        for n in [0, 1, 7, 100, 1_234] {
            assert_eq!(apportion(n, &w).iter().sum::<usize>(), n);
        }
        assert_eq!(apportion(4, &[1, 1, 1, 1]), vec![1, 1, 1, 1]);
    }
}
