//! `durable-views`: one in-process client on a durable engine (WAL with
//! one fsync per commit) over a larger university, with two
//! materialized views: a complement-join view and the Fig. 4
//! disjunctive view. Writes are insert-then-remove pairs on `attends`,
//! `enrolled` and `skill`, so relation sizes stay level; reads ask the
//! view extents, per student and whole; the loop checkpoints
//! periodically. At the end the WAL directory is reopened and recovery
//! must yield exactly the final acknowledged state.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use gq_algebra::{
    delta_database_lazy, delta_plan, materialize_old, referenced_old_names, AlgebraExpr, Evaluator,
};
use gq_calculus::parse;
use gq_core::{EngineError, QueryEngine};
use gq_governor::Governor;
use gq_rewrite::canonicalize_governed;
use gq_storage::wal::{WalOp, WalRecord, WalWriter};
use gq_storage::{Database, DurableDatabase, MutationDelta, Tuple};
use gq_translate::ImprovedTranslator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    cpu_time, cpu_timed, per_op_us, push_end_to_end, ratio, timed, HostSpeed, Outcome, Rate,
    RunOpts, Samples, Tracer, SETUP_REPEATS,
};
use crate::data::{generate, relation, suite, text, tuple, Answer, RelData, Uni};
use crate::layers::{replay_apply, replay_read, Counts, LayerMetrics, Write};

pub const STUDENTS: usize = 1000;

/// The complement-join view (`E2E_SUITE[3]`) and the Fig. 4
/// disjunctive view (`E2E_SUITE[8]`).
const VIEWS: [(&str, &str, usize); 2] = [
    (
        "cj",
        "attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
        3,
    ),
    (
        "fig4",
        "student(x) & (!enrolled(x,\"d0\") | skill(x,\"db\"))",
        8,
    ),
];

/// Checkpoint after every this many rounds.
const CHECKPOINT_EVERY: u64 = 2;

/// A round is two halves; each makes the light write pairs (`attends`,
/// `skill`) twice and ends with whole-extent reads of both views, and the
/// second half also makes the costly `enrolled` pair. The costliest
/// writes are then 2 in 42 and the `cj` extent reads 2 in 88, so the
/// write and read p99 each fall near the middle of one operation type's
/// latencies rather than on the edge between two types.
const HALVES: usize = 2;
const LIGHT_PER_HALF: usize = 2;

/// One write pair: a fact about `student` inserted, then removed.
struct Pair {
    relation: &'static str,
    student: String,
    other: String,
}

/// The round's write pairs, drawn from the seed: facts the generated
/// university does not hold, chosen so that each one changes a view.
/// Returns the light pairs and the costly one.
fn pairs(u: &Uni, seed: u64) -> (Vec<Pair>, Pair) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd0_0d);
    let mut out = Vec::new();
    let lecture_ids: Vec<String> = {
        let mut v: Vec<String> = u.lecture.iter().map(|(l, _)| l.clone()).collect();
        v.sort();
        v
    };
    let student = |rng: &mut StdRng| format!("s{}", rng.gen_range(0..STUDENTS));
    // Complement-join view: a student attends a lecture of a department
    // they are not enrolled in.
    while out.len() < 3 {
        let s = student(&mut rng);
        let l = &lecture_ids[rng.gen_range(0..lecture_ids.len())];
        if !u.attends.has(&s, l) && u.foreign_lecture(&s, l) {
            out.push(Pair {
                relation: "attends",
                student: s,
                other: l.clone(),
            });
        }
    }
    // Skill: a d0 student without `db` joins the Fig. 4 view.
    while out.len() < 5 {
        let s = student(&mut rng);
        if u.enrolled.has(&s, "d0") && !u.skill.has(&s, "db") {
            out.push(Pair {
                relation: "skill",
                student: s,
                other: "db".into(),
            });
        }
    }
    // Enrolment in d0: the student leaves the Fig. 4 view and their d0
    // lectures leave the complement-join view.
    loop {
        let s = student(&mut rng);
        if !u.enrolled.has(&s, "d0") && !u.skill.has(&s, "db") && u.attends.of(&s).count() > 0 {
            let costly = Pair {
                relation: "enrolled",
                student: s,
                other: "d0".into(),
            };
            return (out, costly);
        }
    }
}

impl Pair {
    fn write(&self, insert: bool) -> Write {
        Write {
            insert,
            relation: self.relation,
            tuple: tuple(&[&self.student, &self.other]),
        }
    }

    fn apply(&self, u: &mut Uni, insert: bool) {
        let r = u.rel2_mut(self.relation);
        if insert {
            r.insert(&self.student, &self.other);
        } else {
            r.remove(&self.student, &self.other);
        }
    }

    /// The two point reads that see this pair's effect on the views.
    fn reads(&self) -> [String; 2] {
        [
            format!("cj(\"{}\", y)", self.student),
            format!("fig4(\"{}\")", self.student),
        ]
    }
}

/// Expected answers of a pair's point reads in state `u`.
fn point_answers(u: &Uni, p: &Pair) -> [Answer; 2] {
    [
        Answer::Rows {
            vars: vec!["y"],
            rows: u.cj_of(&p.student),
        },
        Answer::Bool(u.fig4(&p.student)),
    ]
}

/// Whole-extent reads and their reference answers at the level state.
fn extent_reads(answers: &[Answer]) -> Vec<(String, &Answer)> {
    VIEWS
        .iter()
        .map(|(name, _, i)| {
            let vars = if *name == "cj" { "x,y" } else { "x" };
            (format!("{name}({vars})"), &answers[*i])
        })
        .collect()
}

/// A view's plan, compiled the way the engine compiles it.
struct ViewPlan {
    name: &'static str,
    plan: AlgebraExpr,
    reads: BTreeSet<String>,
}

fn view_plans(db: &Database) -> Vec<ViewPlan> {
    VIEWS
        .iter()
        .map(|(name, body, _)| {
            let f = parse(body).expect("view body parses");
            let g = Governor::unlimited();
            let canonical = canonicalize_governed(&f, &g).expect("view body normalizes");
            let (_, plan) = ImprovedTranslator::new(db)
                .with_governor(g)
                .translate_open(&canonical)
                .expect("view body translates");
            ViewPlan {
                name,
                plan,
                reads: f.relation_names().into_iter().map(String::from).collect(),
            }
        })
        .collect()
}

/// Replay incremental maintenance of every view reading the written
/// relation: delta plan, delta-database evaluation, extent patch.
/// Returns the net number of extent tuples changed.
fn replay_maintain(working: &mut Database, old: &Database, w: &Write, views: &[ViewPlan]) -> u64 {
    let delta = if w.insert {
        MutationDelta::inserted_tuple(w.relation, w.tuple.clone())
    } else {
        MutationDelta::removed_tuple(w.relation, w.tuple.clone())
    };
    let deltas = [delta];
    let mut changed_tuples = 0u64;
    for v in views.iter().filter(|v| v.reads.contains(w.relation)) {
        let (mut ddb, changed) =
            delta_database_lazy(working, old, &deltas).expect("delta database builds");
        let dp = delta_plan(&v.plan, &changed, &ddb).expect("delta plan builds");
        if dp.is_empty() {
            continue;
        }
        let mut wanted = BTreeSet::new();
        for side in [&dp.insert, &dp.remove].into_iter().flatten() {
            referenced_old_names(side, &changed, &mut wanted);
        }
        materialize_old(&mut ddb, old, &wanted).expect("old extents materialize");
        let ev = Evaluator::new(&ddb).with_governor(Governor::unlimited());
        let minus = dp
            .remove
            .as_ref()
            .map(|p| ev.eval(p).expect("Δ⁻ evaluates"));
        let plus = dp
            .insert
            .as_ref()
            .map(|p| ev.eval(p).expect("Δ⁺ evaluates"));
        let mut extent = working
            .relation(v.name)
            .expect("view extent exists")
            .clone();
        let mut removed = HashSet::new();
        for t in minus.iter().flat_map(|m| m.iter()) {
            if extent.remove(t) {
                removed.insert(t.clone());
            }
        }
        for t in plus.iter().flat_map(|p| p.iter()) {
            if extent.insert(t.clone()).expect("patched tuple is valid") && !removed.remove(t) {
                changed_tuples += 1;
            }
        }
        changed_tuples += removed.len() as u64;
        working.replace_relation(extent);
    }
    changed_tuples
}

struct Durable {
    engine: QueryEngine,
    dir: PathBuf,
}

/// Load the generated tuples into a fresh durable directory, checkpoint,
/// and define both views.
fn open(dir: &Path, rels: &[RelData]) -> Durable {
    let _ = std::fs::remove_dir_all(dir);
    let (mut db, _) = DurableDatabase::open(dir).expect("durable directory opens");
    for r in rels {
        db.add_relation(relation(r)).expect("relation is logged");
    }
    db.checkpoint().expect("initial checkpoint");
    let engine = QueryEngine::from_durable(db);
    for (name, body, _) in VIEWS {
        engine
            .define_materialized_view(name, body)
            .expect("view defines");
    }
    Durable {
        engine,
        dir: dir.to_path_buf(),
    }
}

/// The reference answers and per-round operations.
struct Plan<'a> {
    answers: &'a [Answer],
    light: Vec<Pair>,
    costly: Pair,
}

#[derive(Default)]
struct Timings {
    reads: Samples,
    writes: Samples,
    rate: Rate,
}

/// Optional per-op tracing hooks for the traced rounds.
struct Trace<'a> {
    tracer: &'a mut Tracer,
    counts: &'a mut Counts,
    views: &'a [ViewPlan],
    side_wal: &'a mut WalWriter,
    reads: &'a mut Samples,
    op: u64,
}

impl Plan<'_> {
    /// One round of `halves` halves: each makes the light write pairs
    /// `light_per_half` times (the last one also the costly pair), each
    /// write followed by its point reads, then reads both whole extents.
    /// `state` is the reference university, mutated in step with the
    /// engine and level again at the end. Counts ops into `out` when
    /// `count` is set, and timings into `t` when the round is also
    /// untraced.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &self,
        engine: &QueryEngine,
        state: &mut Uni,
        out: &mut Outcome,
        t: &mut Timings,
        halves: usize,
        light_per_half: usize,
        count: bool,
        mut trace: Option<&mut Trace<'_>>,
    ) {
        let timed_round = count && trace.is_none();
        for half in 0..halves {
            let costly = (half + 1 == halves).then_some(&self.costly);
            let pairs = (0..light_per_half).flat_map(|_| &self.light).chain(costly);
            for p in pairs {
                for insert in [true, false] {
                    let w = p.write(insert);
                    let (r, d) = write(engine, &w, trace.as_deref_mut());
                    if let Ok(false) = r {
                        out.wrong(format!("{}{} reported no change", w.relation, w.tuple));
                    }
                    if count {
                        out.attempt("write", r.is_err());
                    }
                    if timed_round {
                        t.writes.push(d);
                        t.rate.tick(d);
                    }
                    p.apply(state, insert);
                    for (text, answer) in p.reads().iter().zip(point_answers(state, p)) {
                        let (d, failed) = read(engine, text, &answer, out, trace.as_deref_mut());
                        if count {
                            out.attempt("point-read", failed);
                        }
                        if timed_round {
                            t.reads.push(d);
                            t.rate.tick(d);
                        }
                    }
                }
            }
            for (text, answer) in extent_reads(self.answers) {
                let (d, failed) = read(engine, &text, answer, out, trace.as_deref_mut());
                if count {
                    out.attempt("extent-read", failed);
                }
                if timed_round {
                    t.reads.push(d);
                    t.rate.tick(d);
                }
            }
        }
    }
}

/// Run one read, check it, and replay its phases when traced.
/// Returns the CPU time it took and whether it failed.
fn read(
    engine: &QueryEngine,
    text: &str,
    answer: &Answer,
    out: &mut Outcome,
    trace: Option<&mut Trace<'_>>,
) -> (std::time::Duration, bool) {
    let ((r, a, b), cpu) = cpu_timed(|| timed(|| engine.query(text)));
    match &r {
        Ok(res) => {
            if let Err(e) = answer.check(res) {
                out.wrong(format!("`{text}`: {e}"));
            }
        }
        Err(e) => eprintln!("`{text}` failed: {e}"),
    }
    if let Some(tr) = trace {
        tr.op += 1;
        tr.reads.push(cpu);
        let root = tr.tracer.record("core.query", 0, tr.op, a, b);
        if let Ok(res) = &r {
            tr.counts.add_exec(&res.stats);
        }
        replay_read(engine, text, tr.tracer, tr.counts, root, tr.op);
    }
    (cpu, r.is_err())
}

/// Run one write and return the CPU time it took. When traced, first
/// replay its catalog apply, WAL commit and view maintenance against the
/// pre-write state.
fn write(
    engine: &QueryEngine,
    w: &Write,
    trace: Option<&mut Trace<'_>>,
) -> (Result<bool, EngineError>, std::time::Duration) {
    let Some(tr) = trace else {
        return cpu_timed(|| w.run(engine));
    };
    let old = engine.snapshot();
    let (mut working, aa, ab) = replay_apply(engine, w);
    let record = WalRecord {
        epoch: old.epoch() + 1,
        op: if w.insert {
            WalOp::Insert {
                relation: w.relation.to_string(),
                tuple: w.tuple.clone(),
            }
        } else {
            WalOp::Remove {
                relation: w.relation.to_string(),
                tuple: w.tuple.clone(),
            }
        },
    };
    let (_, wa, wb) = timed(|| tr.side_wal.append(&record).expect("side WAL appends"));
    let (delta, ia, ib) = timed(|| replay_maintain(&mut working, &old, w, tr.views));
    drop((working, old));
    let before = engine.durability_stats().unwrap_or_default();
    let ((r, a, b), cpu) = cpu_timed(|| timed(|| w.run(engine)));
    let after = engine.durability_stats().unwrap_or_default();
    tr.op += 1;
    let root = tr.tracer.record("core.write", 0, tr.op, a, b);
    tr.tracer.record("storage.apply", root, tr.op, aa, ab);
    tr.tracer.record("storage.wal_commit", root, tr.op, wa, wb);
    tr.tracer.record("ivm.maintain", root, tr.op, ia, ib);
    tr.counts.writes += 1;
    tr.counts.delta_tuples += delta;
    tr.counts.fsyncs += after.fsyncs - before.fsyncs;
    tr.counts.wal_bytes += after.wal_bytes - before.wal_bytes;
    (r, cpu)
}

/// Compare the view extents in `snap` with the reference.
fn check_extents(snap: &Database, answers: &[Answer], out: &mut Outcome) {
    for (name, _, i) in VIEWS {
        let Answer::Rows { rows, .. } = &answers[i] else {
            continue;
        };
        let extent = snap.relation(name).expect("view extent exists");
        let got: HashSet<&Tuple> = extent.iter().collect();
        if got.len() != rows.len() || !rows.iter().all(|t| got.contains(t)) {
            out.wrong(format!(
                "view {name}: {} tuples, reference {}",
                got.len(),
                rows.len()
            ));
        }
    }
}

/// Reopen the WAL directory and compare every base relation with the
/// final acknowledged state (the generated tuples: every pair was
/// removed again), and the checkpointed view extents with the reference.
fn check_recovery(dir: &Path, rels: &[RelData], answers: &[Answer], out: &mut Outcome) {
    match DurableDatabase::open(dir) {
        Ok((db, stats)) => {
            check_extents(db.db(), answers, out);
            for r in rels {
                let expected: HashSet<Vec<String>> = r
                    .tuples
                    .iter()
                    .map(|t| t.values().map(text).collect())
                    .collect();
                let got: HashSet<Vec<String>> = match db.db().relation(&r.name) {
                    Ok(rel) => rel.iter().map(|t| t.values().map(text).collect()).collect(),
                    Err(e) => {
                        out.wrong(format!("recovery lost {}: {e}", r.name));
                        continue;
                    }
                };
                if got != expected {
                    out.wrong(format!(
                        "recovered {} has {} tuples, acknowledged {} ({stats})",
                        r.name,
                        got.len(),
                        expected.len()
                    ));
                }
            }
        }
        Err(e) => out.wrong(format!("recovery failed: {e}")),
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let rels = generate(STUDENTS, opts.seed);
    let mut state = Uni::new(&rels);
    let answers = suite(&state);
    let (light, costly) = pairs(&state, opts.seed);
    let plan = Plan {
        answers: &answers,
        light,
        costly,
    };
    let mut out = Outcome::new();
    let mut setups = Vec::new();
    let mut current: Option<Durable> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(d) = current.take() {
            drop(d.engine);
            let _ = std::fs::remove_dir_all(&d.dir);
        }
        let dir = opts.work_dir.join(format!("durable-{}-{k}", opts.seed));
        let start = cpu_time();
        let d = open(&dir, &rels);
        plan.round(
            &d.engine,
            &mut state,
            &mut out,
            &mut Timings::default(),
            1,
            1,
            false,
            None,
        );
        setups.push((cpu_time() - start).as_secs_f64());
        current = Some(d);
    }
    let d = current.expect("at least one set-up");
    check_extents(&d.engine.snapshot(), &answers, &mut out);
    let mut t = Timings::default();
    let mut checkpoints = Samples::default();
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut traced_reads = Samples::default();
    let views = view_plans(&d.engine.snapshot());
    let side_path = opts.work_dir.join(format!("side-wal-{}.log", opts.seed));
    let mut side_wal = WalWriter::create(&side_path).expect("side WAL creates");
    let start = Instant::now();
    t.rate = Rate::new(start);
    let mut host = HostSpeed::new();
    let mut round = 0u64;
    // Whole checkpoint intervals: the run ends on a checkpoint, so the
    // recovery check below replays no WAL record (see README).
    while start.elapsed() < opts.budget() || !round.is_multiple_of(CHECKPOINT_EVERY) {
        let traced = opts.trace && round % 2 == 1;
        if traced {
            let mut trace = Trace {
                tracer: &mut tracer,
                counts: &mut counts,
                views: &views,
                side_wal: &mut side_wal,
                reads: &mut traced_reads,
                op: round << 32,
            };
            plan.round(
                &d.engine,
                &mut state,
                &mut out,
                &mut t,
                HALVES,
                LIGHT_PER_HALF,
                true,
                Some(&mut trace),
            );
        } else {
            let before = d.engine.journal().appends();
            let ops = out.attempted();
            plan.round(
                &d.engine,
                &mut state,
                &mut out,
                &mut t,
                HALVES,
                LIGHT_PER_HALF,
                true,
                None,
            );
            counts.journal_events += d.engine.journal().appends() - before;
            counts.plain_ops += out.attempted() - ops;
        }
        round += 1;
        host.sample_if_due();
        if round.is_multiple_of(CHECKPOINT_EVERY) {
            let ((r, a, b), cpu) = cpu_timed(|| timed(|| d.engine.checkpoint()));
            checkpoints.push(b - a);
            if opts.trace {
                tracer.record("storage.checkpoint", 0, round << 32, a, b);
            }
            out.attempt("checkpoint", r.is_err());
            if !opts.trace {
                t.rate.tick(cpu);
            }
            if let Err(e) = r {
                eprintln!("checkpoint failed: {e}");
            }
            check_extents(&d.engine.snapshot(), &answers, &mut out);
            side_wal = WalWriter::create(&side_path).expect("side WAL recreates");
        }
    }
    check_extents(&d.engine.snapshot(), &answers, &mut out);
    let cache = d.engine.plan_cache_stats();
    drop(d.engine);
    check_recovery(&d.dir, &rels, &answers, &mut out);
    let _ = std::fs::remove_dir_all(&d.dir);
    let _ = std::fs::remove_file(&side_path);
    if opts.trace {
        let path = opts
            .work_dir
            .join(format!("trace-durable-views-{}.jsonl", opts.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        let selfs = tracer.self_ns();
        let m = LayerMetrics::new(&selfs, &counts);
        m.read_phases(&mut out, cache);
        m.no_server(&mut out);
        m.apply(&mut out);
        let writes = counts.writes;
        out.metric(
            "storage.wal_commit_us",
            per_op_us(&selfs, "storage.wal_commit", writes),
            "us",
        );
        out.metric(
            "storage.fsyncs_per_write",
            ratio(counts.fsyncs, writes),
            "count",
        );
        out.metric(
            "storage.wal_bytes_per_write",
            ratio(counts.wal_bytes, writes),
            "bytes",
        );
        out.metric("storage.checkpoint_ms", checkpoints.p50_ms(), "ms");
        out.metric(
            "ivm.maintain_us",
            per_op_us(&selfs, "ivm.maintain", writes),
            "us",
        );
        out.metric(
            "ivm.delta_tuples",
            ratio(counts.delta_tuples, writes),
            "count",
        );
        m.overhead(&mut out, &traced_reads, &t.reads);
        return out;
    }
    push_end_to_end(&mut out, &host, setups, &t.rate, &t.reads, &t.writes);
    out
}
