//! Stage-by-stage instrumentation of the Fig. 9 execution model.
//!
//! Every dynamic dispatch walks the same stages the paper diagrams:
//! expression construction (which resolves the operators from context
//! as the expression is built) → type inference → key hashing → module
//! retrieval (with its cache outcome) → invocation. While tracing is on,
//! a [`PipelineTrace`] records the wall time of each stage; the
//! `jit_pipeline` example and the `figures` binary render them as the
//! paper's walkthrough.

use crate::cache::CacheOutcome;

/// The stages of one dynamic dispatch, in execution order.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Building the deferred expression object (magic-method analog),
    /// including capturing its operators from the context stack (`with`
    /// blocks).
    ExpressionConstruction,
    /// Inferring operand/output dtypes and upcasts.
    TypeInference,
    /// Hashing kwargs into the module key.
    KeyHash,
    /// Cache probe + (if needed) instantiation — Fig. 9's `get_module`.
    ModuleRetrieval,
    /// Calling the kernel on the operands.
    Invocation,
}

impl Stage {
    /// Display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ExpressionConstruction => "expression construction",
            Stage::TypeInference => "type inference",
            Stage::KeyHash => "key hash",
            Stage::ModuleRetrieval => "module retrieval",
            Stage::Invocation => "invocation",
        }
    }
}

/// Timings for one dispatch through the pipeline.
#[derive(Debug, Clone, Default)]
pub struct PipelineTrace {
    stages: Vec<(Stage, u64)>,
    /// The canonical key text of the dispatched module.
    pub key: String,
    /// How the module was obtained, once known.
    pub outcome: Option<CacheOutcome>,
}

impl PipelineTrace {
    /// An empty trace for the given key text.
    pub fn new(key: impl Into<String>) -> Self {
        PipelineTrace {
            stages: Vec::with_capacity(5),
            key: key.into(),
            outcome: None,
        }
    }

    /// Record that `stage` took `ns` nanoseconds.
    pub fn record(&mut self, stage: Stage, ns: u64) {
        self.stages.push((stage, ns));
    }

    /// The recorded `(stage, nanoseconds)` pairs in execution order.
    pub fn stages(&self) -> &[(Stage, u64)] {
        &self.stages
    }

    /// Nanoseconds for one stage, if recorded (sums duplicates).
    pub fn stage_ns(&self, stage: Stage) -> Option<u64> {
        let mut total = None;
        for &(s, ns) in &self.stages {
            if s == stage {
                *total.get_or_insert(0) += ns;
            }
        }
        total
    }

    /// Total nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.stages.iter().map(|&(_, ns)| ns).sum()
    }

    /// Everything except the kernel invocation — the DSL's abstraction
    /// penalty for this dispatch, the quantity Fig. 10 measures.
    pub fn overhead_ns(&self) -> u64 {
        self.stages
            .iter()
            .filter(|&&(s, _)| s != Stage::Invocation)
            .map(|&(_, ns)| ns)
            .sum()
    }

    /// Render the trace in the style of the paper's Fig. 9 walkthrough.
    pub fn render(&self) -> String {
        let mut out = format!("dispatch {}\n", self.key);
        for &(stage, ns) in &self.stages {
            out.push_str(&format!("  {:<26} {:>10} ns\n", stage.name(), ns));
        }
        if let Some(outcome) = self.outcome {
            out.push_str(&format!("  outcome: {outcome:?}\n"));
        }
        out.push_str(&format!("  total: {} ns\n", self.total_ns()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = PipelineTrace::new("mxm(a_type=fp64)");
        t.record(Stage::KeyHash, 100);
        t.record(Stage::ModuleRetrieval, 400);
        t.record(Stage::Invocation, 10_000);
        assert_eq!(t.stage_ns(Stage::KeyHash), Some(100));
        assert_eq!(t.stage_ns(Stage::TypeInference), None);
        assert_eq!(t.total_ns(), 10_500);
        assert_eq!(t.overhead_ns(), 500);
    }

    #[test]
    fn duplicate_stages_sum() {
        let mut t = PipelineTrace::new("k");
        t.record(Stage::Invocation, 10);
        t.record(Stage::Invocation, 20);
        assert_eq!(t.stage_ns(Stage::Invocation), Some(30));
    }

    #[test]
    fn render_contains_stage_names() {
        let mut t = PipelineTrace::new("mxm(x=1)");
        t.record(Stage::ExpressionConstruction, 5);
        t.outcome = Some(CacheOutcome::Compiled);
        let rendered = t.render();
        assert!(rendered.contains("expression construction"));
        assert!(rendered.contains("mxm(x=1)"));
        assert!(rendered.contains("Compiled"));
    }

    #[test]
    fn stage_names_unique() {
        let all = [
            Stage::ExpressionConstruction,
            Stage::TypeInference,
            Stage::KeyHash,
            Stage::ModuleRetrieval,
            Stage::Invocation,
        ];
        let mut names: Vec<_> = all.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
