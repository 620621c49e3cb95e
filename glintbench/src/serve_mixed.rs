//! `serve_mixed`: `/score` traffic through `glint-serve` over loopback.
//!
//! One client connection sends pre-encoded `/score` requests back to back,
//! one in flight at a time; each request is a graph from the
//! Table-3-proportioned five-platform mix. Every request's on-CPU time is
//! the whole process's, client and server threads together: its end-to-end
//! cost on this box, with one request in flight so none shares it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use glint_core::{DeadlinePressure, Detection};
use glint_graph::InteractionGraph;
use glint_serve::{client, Scorer, ServeConfig, Server};
use serde_json::Value;

use crate::cpu::Stamp;
use crate::fixture::Fixture;
use crate::inputs::{serve_graphs, GraphSource};
use crate::layers::{self, Detector, Models};
use crate::report::{field, Outcome};
use crate::spans::Recorder;
use crate::stats::{summarize, OpTimes};
use crate::RunResult;

/// Distinct request graphs; a run cycles through them in order.
pub const POOL_GRAPHS: usize = 2_048;
/// Server workers.
pub const WORKERS: usize = 2;
/// The server's deadline budget. Its 25 ms default degraded about one
/// request in 30 000 to a drift-only verdict on a shared host whenever the
/// hypervisor stalled the vCPU mid-request, so the failure count changed
/// from run to run; with one request in flight nothing queues, and the
/// wider budget leaves every verdict full.
pub const DEADLINE_MS: u64 = 1_000;
/// Percentile of the end-to-end tail.
const TAIL_PCT: f64 = 99.0;
/// Unmeasured requests, one connection per worker, that warm a freshly
/// started server.
const WARMUP_REQUESTS: usize = 256;
/// Bodies whose decode cost is timed out of band.
const DECODE_SAMPLE: usize = 256;
/// Graphs re-timed layer by layer in the traced run.
const ATTRIBUTION_SAMPLE: usize = 1_024;

pub struct State {
    detector: Arc<Detector>,
    classifier: glint_gnn::models::Itgnn,
    embedder: glint_gnn::models::Itgnn,
    drift: glint_core::DriftDetector,
    graphs: Vec<InteractionGraph>,
    /// `{"graph": …}` per graph, encoded once.
    bodies: Vec<String>,
}

pub fn setup(fixture: &Fixture, seed: u64) -> State {
    let source = GraphSource::new(&fixture.corpus);
    let graphs = serve_graphs(&source, seed, POOL_GRAPHS);
    let bodies = graphs
        .iter()
        .map(|g| {
            let body = Value::Map(vec![("graph".to_string(), serde_json::to_value(g))]);
            serde_json::to_string(&body).unwrap_or_default()
        })
        .collect();
    State {
        detector: Arc::new(Detector::new(
            fixture.corpus.clone(),
            fixture.copy_model(&fixture.classifier),
            fixture.copy_model(&fixture.embedder),
            fixture.drift.clone(),
        )),
        classifier: fixture.copy_model(&fixture.classifier),
        embedder: fixture.copy_model(&fixture.embedder),
        drift: fixture.drift.clone(),
        graphs,
        bodies,
    }
}

/// A `Scorer` that times the detector calls of measured requests. With one
/// request in flight, the n-th call after `measuring` is set serves the
/// client's n-th measured request; warm-up calls are not timed.
struct TimedScorer {
    inner: Arc<Detector>,
    rec: Arc<Recorder>,
    measuring: AtomicBool,
    next: AtomicU64,
}

impl Scorer for TimedScorer {
    fn score(&self, graph: InteractionGraph, pressure: DeadlinePressure) -> Detection {
        if !self.measuring.load(Ordering::Acquire) {
            return self.inner.score(graph, pressure);
        }
        let req = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let detection = self.inner.score(graph, pressure);
        self.rec.span(
            "serve.score_us",
            req,
            Some("serve.roundtrip_us"),
            start,
            Instant::now(),
        );
        detection
    }
}

/// One `/score` exchange with a pre-encoded body.
fn exchange(addr: &SocketAddr, body: &str) -> std::io::Result<(u16, Value)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "POST /score HTTP/1.1\r\nHost: glint\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    client::read_response(&mut stream)
}

struct Answer {
    graph: usize,
    outcome: Outcome,
    body: Value,
}

fn answer(graph: usize, response: std::io::Result<(u16, Value)>) -> Answer {
    let outcome = Outcome::of_response(&response);
    Answer {
        graph,
        outcome,
        body: response.map(|(_, b)| b).unwrap_or(Value::Null),
    }
}

/// Unmeasured warm-up: `WARMUP_REQUESTS` requests over one connection per
/// worker.
fn warm_up(state: &State, addr: &SocketAddr) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= WARMUP_REQUESTS {
                    break;
                }
                let _ = exchange(addr, &state.bodies[k % state.bodies.len()]);
            });
        }
    });
}

/// The measured loop: one connection, one request in flight, graphs in
/// pool order, for `seconds`.
fn measured(
    state: &State,
    addr: &SocketAddr,
    seconds: f64,
    rec: &Recorder,
) -> (OpTimes, Vec<Answer>) {
    let mut ops = OpTimes::default();
    let mut answers = Vec::new();
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let i = k % state.graphs.len();
        let stamp = Stamp::now();
        let sent = Instant::now();
        let response = exchange(addr, &state.bodies[i]);
        let done = Instant::now();
        ops.record(stamp.elapsed(), 1.0);
        rec.span("serve.roundtrip_us", k as u64, None, sent, done);
        answers.push(answer(i, response));
        k += 1;
    }
    (ops, answers)
}

/// A full response must equal the in-process verdict bit for bit.
fn same_verdict(body: &Value, d: &Detection) -> Result<(), String> {
    let verdict = field(body, "verdict").and_then(Value::as_str);
    let want = if d.is_threat { "threat" } else { "normal" };
    if verdict != Some(want) {
        return Err(format!("verdict {verdict:?} != {want}"));
    }
    let p = field(body, "threat_probability").and_then(Value::as_f64);
    if p.map(f64::to_bits) != Some(f64::from(d.threat_probability).to_bits()) {
        return Err(format!(
            "threat_probability {p:?} != {}",
            d.threat_probability
        ));
    }
    let degree = field(body, "drift_degree").and_then(Value::as_f64);
    let want_degree = d.drift_degree.is_finite().then_some(d.drift_degree);
    if degree.map(f64::to_bits) != want_degree.map(f64::to_bits) {
        return Err(format!("drift_degree {degree:?} != {}", d.drift_degree));
    }
    let causes: Vec<u64> = field(body, "warning")
        .and_then(|w| field(w, "causes"))
        .and_then(Value::as_seq)
        .map(|cs| {
            cs.iter()
                .filter_map(|c| field(c, "rule_id").and_then(Value::as_u64))
                .collect()
        })
        .unwrap_or_default();
    let want_causes: Vec<u64> = d
        .warning
        .as_ref()
        .map(|w| w.causes.iter().map(|c| u64::from(c.rule_id)).collect())
        .unwrap_or_default();
    if causes != want_causes {
        return Err(format!("causes {causes:?} != {want_causes:?}"));
    }
    if field(body, "warning").is_some_and(|w| *w != Value::Null) != d.warning.is_some() {
        return Err("warning presence differs".to_string());
    }
    Ok(())
}

fn metric_u64(metrics: &Value, path: &[&str]) -> f64 {
    let mut v = metrics;
    for key in path {
        match field(v, key) {
            Some(inner) => v = inner,
            None => return 0.0,
        }
    }
    v.as_u64().unwrap_or(0) as f64
}

pub fn run(state: &State, seconds: f64, rec: &Arc<Recorder>) -> RunResult {
    let mut result = RunResult::default();
    let timed = rec.on().then(|| {
        Arc::new(TimedScorer {
            inner: Arc::clone(&state.detector),
            rec: Arc::clone(rec),
            measuring: AtomicBool::new(false),
            next: AtomicU64::new(0),
        })
    });
    let scorer: Arc<dyn Scorer> = match &timed {
        Some(t) => Arc::clone(t) as Arc<dyn Scorer>,
        None => Arc::clone(&state.detector) as Arc<dyn Scorer>,
    };
    let cfg = ServeConfig {
        workers: WORKERS,
        deadline_ms: DEADLINE_MS,
        ..ServeConfig::default()
    };
    let server = match Server::start(scorer, cfg) {
        Ok(s) => s,
        Err(e) => {
            result.problem(format!("server failed to start: {e}"));
            return result;
        }
    };
    let addr = server.addr();
    warm_up(state, &addr);
    if let Some(t) = &timed {
        t.measuring.store(true, Ordering::Release);
    }

    let depth_max = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let (ops, answers) = std::thread::scope(|s| {
        if rec.on() {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    depth_max.fetch_max(server.queue_depth(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let measured = measured(state, &addr, seconds, rec);
        done.store(true, Ordering::Relaxed);
        measured
    });
    let server_metrics = client::get(&addr, "/metrics")
        .map(|(_, v)| v)
        .unwrap_or(Value::Null);
    server.shutdown();

    let f = ops.figures(TAIL_PCT);
    result.e2e.set_ops(&f);
    eprintln!(
        "[glintbench] serve_mixed: {}",
        f.describe("requests", "requests")
    );

    // correctness: every full verdict equals the in-process assessment
    let answers: Vec<&Answer> = answers.iter().collect();
    result.attempted = answers.len() as u64;
    result.failed = answers.iter().filter(|a| a.outcome.failed()).count() as u64;
    let full: Vec<&Answer> = answers
        .iter()
        .copied()
        .filter(|a| !a.outcome.failed())
        .collect();
    let mut unique: Vec<usize> = full.iter().map(|a| a.graph).collect();
    unique.sort_unstable();
    unique.dedup();
    let reference: BTreeMap<usize, Detection> = unique
        .iter()
        .copied()
        .zip(
            state.detector.assess_batch(
                &unique
                    .iter()
                    .map(|&i| state.graphs[i].clone())
                    .collect::<Vec<_>>(),
            ),
        )
        .collect();
    let mut mismatches = 0usize;
    for a in &full {
        if let Err(why) = same_verdict(&a.body, &reference[&a.graph]) {
            if mismatches < 3 {
                result.problem(format!("graph {}: served verdict differs: {why}", a.graph));
            }
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        result.problem(format!(
            "{mismatches} served verdicts differ from in-process assess"
        ));
    }
    let flagged = full
        .iter()
        .filter(|a| field(&a.body, "warning").is_some_and(|w| *w != Value::Null))
        .count();
    if flagged == 0 {
        result.problem("no served verdict was flagged: the explain branch was never timed".into());
    }
    let truth: Vec<usize> = full
        .iter()
        .map(|a| state.graphs[a.graph].label.map_or(0, |l| l.class()))
        .collect();
    let pred: Vec<usize> = full
        .iter()
        .map(|a| usize::from(field(&a.body, "verdict").and_then(Value::as_str) == Some("threat")))
        .collect();
    result
        .e2e
        .set("verdict_f1", "ratio", crate::weighted_f1(&truth, &pred));
    eprintln!(
        "[glintbench] serve_mixed: {} answers, {} failed, {} flagged ({:.1}%), {} compared bit-for-bit",
        answers.len(),
        result.failed,
        flagged,
        100.0 * flagged as f64 / full.len().max(1) as f64,
        full.len()
    );

    if rec.on() {
        let m = &mut result.layers;
        let roundtrip = rec.durations_by_req("serve.roundtrip_us");
        for (req, score_ns) in rec.durations_by_req("serve.score_us") {
            if let Some(rt) = roundtrip.get(&req) {
                rec.sample("serve.overhead_us", rt.saturating_sub(score_ns) as f64);
            }
        }
        for (k, body) in state.bodies.iter().enumerate() {
            if k % (state.bodies.len() / DECODE_SAMPLE).max(1) != 0 {
                continue;
            }
            rec.time("serve.json_decode_us", k as u64, None, || {
                let v: Value = serde_json::from_str(body).unwrap_or(Value::Null);
                let g = field(&v, "graph").map(serde_json::from_value::<InteractionGraph>);
                std::hint::black_box(g.is_some())
            });
        }
        let sizes: Vec<f64> = state.bodies.iter().map(|b| b.len() as f64).collect();
        m.set("serve.body_bytes", "bytes", summarize(&sizes).p50);
        m.set(
            "serve.accepted",
            "count",
            metric_u64(&server_metrics, &["accepted"]),
        );
        m.set(
            "serve.drift_only",
            "count",
            metric_u64(&server_metrics, &["verdicts", "drift_only"]),
        );
        m.set(
            "serve.quarantined",
            "count",
            metric_u64(&server_metrics, &["verdicts", "quarantined"]),
        );
        m.set(
            "serve.queue_depth_max",
            "count",
            depth_max.load(Ordering::Relaxed) as f64,
        );

        let models = Models {
            classifier: &state.classifier,
            embedder: &state.embedder,
            drift: &state.drift,
        };
        let sample = &state.graphs[..ATTRIBUTION_SAMPLE.min(state.graphs.len())];
        let share = layers::attribute(rec, &state.detector, &models, sample);
        m.set("detector.flagged_share", "ratio", share);
        layers::tensor_counters(sample, |g| drop(state.detector.assess(g.clone())), m);
        layers::explain_forwards(&models, sample, m);
    }
    result
}
