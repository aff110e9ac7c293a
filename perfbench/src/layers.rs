//! Replays of the engine's layers for the traced run. Each replay calls
//! a layer's public functions on the inputs the engine passes them and
//! records one span per call, parented to the production call it
//! decomposes.

use gq_algebra::{Evaluator, ExecStats};
use gq_calculus::parse;
use gq_core::{PlanCacheStats, QueryEngine};
use gq_governor::{CancelToken, Governor};
use gq_rewrite::{canonicalize_governed, canonicalize_traced_governed};
use gq_storage::{Database, Tuple};
use gq_translate::ImprovedTranslator;

use crate::common::{per_op_us, ratio, timed, Outcome, Samples, Tracer};

/// Per-layer counters a traced run accumulates beside its spans.
#[derive(Default)]
pub struct Counts {
    /// Reads whose phases were replayed.
    pub reads: u64,
    pub rule_steps: u64,
    /// Engine `ExecStats` summed over the same reads.
    pub exec: ExecStats,
    /// Writes whose storage/IVM work was replayed.
    pub writes: u64,
    pub fsyncs: u64,
    pub wal_bytes: u64,
    pub delta_tuples: u64,
    /// Requests whose server stages were replayed.
    pub requests: u64,
    /// Operations and journal appends over the untraced rounds.
    pub plain_ops: u64,
    pub journal_events: u64,
}

impl Counts {
    pub fn merge(&mut self, o: &Counts) {
        self.reads += o.reads;
        self.rule_steps += o.rule_steps;
        self.add_exec(&o.exec);
        self.writes += o.writes;
        self.fsyncs += o.fsyncs;
        self.wal_bytes += o.wal_bytes;
        self.delta_tuples += o.delta_tuples;
        self.requests += o.requests;
        self.plain_ops += o.plain_ops;
        self.journal_events += o.journal_events;
    }

    pub fn add_exec(&mut self, s: &ExecStats) {
        self.exec.base_tuples_read += s.base_tuples_read;
        self.exec.comparisons += s.comparisons;
        self.exec.probes += s.probes;
        self.exec.morsels += s.morsels;
        self.exec.peak_intermediate_bytes += s.peak_intermediate_bytes;
    }
}

/// Replay the read phases of `text` — parse, normalize, translate,
/// evaluate — against the engine's current snapshot, under the
/// engine's limits and execution configuration.
pub fn replay_read(
    engine: &QueryEngine,
    text: &str,
    tracer: &mut Tracer,
    counts: &mut Counts,
    parent: u32,
    op: u64,
) {
    let snap = engine.snapshot();
    let governor = Governor::start(engine.limits(), CancelToken::new());
    let (formula, a, b) = timed(|| parse(text));
    tracer.record("calculus.parse", parent, op, a, b);
    let formula = formula.expect("replayed query parses");
    let (canonical, a, b) = timed(|| canonicalize_governed(&formula, &governor));
    tracer.record("rewrite.normalize", parent, op, a, b);
    let canonical = canonical.expect("replayed query normalizes");
    let (_, trace) =
        canonicalize_traced_governed(&formula, &governor).expect("replayed query normalizes");
    counts.rule_steps += trace.steps.len() as u64;
    counts.reads += 1;
    let translator = ImprovedTranslator::new(&snap)
        .with_cost_ordering(false)
        .with_governor(governor.clone());
    let ev = Evaluator::new(&snap)
        .with_exec_config(engine.exec_config().with_streaming(true))
        .with_governor(governor.clone());
    if formula.is_closed() {
        let (plan, a, b) = timed(|| translator.translate_closed(&canonical));
        tracer.record("translate.translate", parent, op, a, b);
        let plan = plan.expect("replayed query translates");
        let (r, a, b) = timed(|| plan.eval(&ev));
        tracer.record("algebra.eval", parent, op, a, b);
        r.expect("replayed query evaluates");
    } else {
        let (plan, a, b) = timed(|| translator.translate_open(&canonical));
        tracer.record("translate.translate", parent, op, a, b);
        let (_, plan) = plan.expect("replayed query translates");
        let (r, a, b) = timed(|| ev.eval(&plan));
        tracer.record("algebra.eval", parent, op, a, b);
        r.expect("replayed query evaluates");
    }
}

/// One catalog mutation, as the engine applies it.
#[derive(Clone)]
pub struct Write {
    pub insert: bool,
    pub relation: &'static str,
    pub tuple: Tuple,
}

impl Write {
    pub fn apply(&self, db: &mut Database) -> bool {
        if self.insert {
            db.insert(self.relation, self.tuple.clone())
                .expect("replayed insert applies")
        } else {
            db.remove(self.relation, &self.tuple)
                .expect("replayed remove applies")
        }
    }

    /// Run this write through the engine's typed mutation methods.
    pub fn run(&self, engine: &QueryEngine) -> Result<bool, gq_core::EngineError> {
        if self.insert {
            engine.insert(self.relation, self.tuple.clone())
        } else {
            engine.remove(self.relation, &self.tuple)
        }
    }
}

/// Replay the catalog apply of `w` on a copy of the published catalog
/// while the snapshot still shares its relations, as the engine does.
/// Returns the span times and the mutated copy.
pub fn replay_apply(
    engine: &QueryEngine,
    w: &Write,
) -> (Database, std::time::Instant, std::time::Instant) {
    let snap = engine.snapshot();
    let mut working: Database = (*snap).clone();
    let (_, a, b) = timed(|| w.apply(&mut working));
    drop(snap);
    (working, a, b)
}

/// Turns a traced run's span self times and counters into the
/// per-layer metrics every workload prints.
pub struct LayerMetrics<'a> {
    selfs: &'a std::collections::BTreeMap<&'static str, i64>,
    counts: &'a Counts,
}

impl<'a> LayerMetrics<'a> {
    pub fn new(
        selfs: &'a std::collections::BTreeMap<&'static str, i64>,
        counts: &'a Counts,
    ) -> Self {
        LayerMetrics { selfs, counts }
    }

    /// Read-path layers: parse, normalize, translate, engine lifecycle,
    /// plan cache, evaluation and its exact operation counts, journal
    /// events.
    pub fn read_phases(&self, out: &mut Outcome, cache: PlanCacheStats) {
        out.metric("core.plan_cache_hit_rate", cache.hit_rate(), "ratio");
        let c = self.counts;
        let n = c.reads;
        let per_read = |v: usize| ratio(v as u64, n);
        out.metric(
            "calculus.parse_us",
            per_op_us(self.selfs, "calculus.parse", n),
            "us",
        );
        out.metric(
            "rewrite.normalize_us",
            per_op_us(self.selfs, "rewrite.normalize", n),
            "us",
        );
        out.metric("rewrite.rule_steps", ratio(c.rule_steps, n), "count");
        out.metric(
            "translate.translate_us",
            per_op_us(self.selfs, "translate.translate", n),
            "us",
        );
        out.metric(
            "core.lifecycle_us",
            per_op_us(self.selfs, "core.query", n),
            "us",
        );
        out.metric(
            "obs.journal_events_per_op",
            ratio(c.journal_events, c.plain_ops),
            "count",
        );
        out.metric(
            "algebra.eval_us",
            per_op_us(self.selfs, "algebra.eval", n),
            "us",
        );
        out.metric(
            "algebra.base_tuples_read",
            per_read(c.exec.base_tuples_read),
            "count",
        );
        out.metric("algebra.comparisons", per_read(c.exec.comparisons), "count");
        out.metric("algebra.probes", per_read(c.exec.probes), "count");
        out.metric("algebra.morsels", per_read(c.exec.morsels), "count");
        out.metric(
            "algebra.peak_intermediate_bytes",
            per_read(c.exec.peak_intermediate_bytes),
            "bytes",
        );
    }

    /// The server stages: zero on workloads without a server.
    pub fn no_server(&self, out: &mut Outcome) {
        for name in [
            "server.frame_us",
            "server.dispatch_us",
            "server.socket_us",
            "server.roundtrip_us",
        ] {
            out.metric(name, 0.0, "us");
        }
    }

    pub fn apply(&self, out: &mut Outcome) {
        out.metric(
            "storage.apply_us",
            per_op_us(self.selfs, "storage.apply", self.counts.writes),
            "us",
        );
    }

    /// WAL and checkpoint metrics: zero on an in-memory engine.
    pub fn no_durability(&self, out: &mut Outcome) {
        out.metric("storage.wal_commit_us", 0.0, "us");
        out.metric("storage.fsyncs_per_write", 0.0, "count");
        out.metric("storage.wal_bytes_per_write", 0.0, "bytes");
        out.metric("storage.checkpoint_ms", 0.0, "ms");
    }

    /// View maintenance: zero where no materialized view is defined.
    pub fn no_ivm(&self, out: &mut Outcome) {
        out.metric("ivm.maintain_us", 0.0, "us");
        out.metric("ivm.delta_tuples", 0.0, "count");
    }

    /// Tracing overhead: the traced rounds' read median beside the
    /// untraced rounds' of the same process.
    pub fn overhead(&self, out: &mut Outcome, traced: &Samples, plain: &Samples) {
        let t = traced.p50_ms();
        let p = plain.p50_ms();
        out.metric("trace.read_cpu_p50_ms", t, "ms");
        out.metric("trace.untraced_read_cpu_p50_ms", p, "ms");
        out.metric(
            "trace.overhead_ratio",
            if p > 0.0 { t / p } else { 0.0 },
            "ratio",
        );
    }
}
