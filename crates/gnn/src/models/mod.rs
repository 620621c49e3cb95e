//! The model zoo: every architecture the paper evaluates.

pub mod gcn;
pub mod gin;
pub mod gxn;
pub mod hetero;
pub mod infograph;
pub mod itgnn;

use crate::batch::PreparedGraph;
use glint_tensor::{par, InferCtx, Matrix, ParamSet, Tape, Var};

pub use gcn::GcnModel;
pub use gin::GinModel;
pub use gxn::GxnModel;
pub use hetero::{HgslModel, MagcnModel, MagxnModel};
pub use infograph::InfoGraphModel;
pub use itgnn::{Itgnn, ItgnnConfig};

/// Result of one forward pass over a single graph.
pub struct ModelOutput {
    /// Graph-level embedding (`1 × embed_dim`).
    pub embedding: Var,
    /// Class logits (`1 × 2`).
    pub logits: Var,
    /// Auxiliary (pooling / infomax) loss to add with weight β, if any.
    pub aux_loss: Option<Var>,
}

/// Result of a tape-free forward pass: plain values, no autograd graph.
///
/// The matrices may come from the [`InferCtx`] buffer pool — callers that
/// run in a serving loop should hand them back with `ctx.release(..)` once
/// the scalars they need have been copied out.
pub struct InferOutput {
    /// Graph-level embedding (`1 × embed_dim`).
    pub embedding: Matrix,
    /// Class logits (`1 × 2`).
    pub logits: Matrix,
}

/// A trainable graph-classification model.
///
/// `Send + Sync` is a supertrait so trainers can run forward/backward passes
/// for the graphs of a mini-batch on worker threads (every implementor is a
/// plain data struct around a [`ParamSet`], so the bound is free).
pub trait GraphModel: Send + Sync {
    fn name(&self) -> &'static str;
    fn params(&self) -> &ParamSet;
    fn params_mut(&mut self) -> &mut ParamSet;
    /// Dimension of [`ModelOutput::embedding`].
    fn embed_dim(&self) -> usize;
    /// Forward pass. `vars` must come from `self.params().bind(tape)`.
    fn forward(&self, tape: &mut Tape, vars: &[Var], g: &PreparedGraph) -> ModelOutput;

    /// Tape-free forward pass for serving: values only, computed with the
    /// pooled [`InferCtx`] kernels, bitwise-identical to [`forward`]
    /// (property-tested in `tests/infer_equiv.rs`).
    ///
    /// The default body falls back to a throwaway tape, which is correct
    /// for every model; the architectures on the detector's serving path
    /// (ITGNN, GCN, GIN) override it with allocation-free kernels. The
    /// fallback runs its tape kernels serially, like every tape-free
    /// forward: one forward never fans out over threads.
    // glint-lint: allow(tape-purity) — the default body is the documented
    // tape-backed fallback; every model on the serving path overrides it
    fn forward_infer(&self, ctx: &mut InferCtx, g: &PreparedGraph) -> InferOutput {
        let _ = &ctx;
        par::with_threads(1, || {
            let mut tape = Tape::new();
            let vars = self.params().bind(&mut tape);
            let out = self.forward(&mut tape, &vars, g);
            InferOutput {
                embedding: tape.value(out.embedding).clone(),
                logits: tape.value(out.logits).clone(),
            }
        })
    }
}

/// Shared hyper-parameters for the baseline models.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    pub hidden: usize,
    pub embed: usize,
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            embed: 64,
            seed: 0,
        }
    }
}
