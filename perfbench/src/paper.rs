//! `paper-queries`: one in-process client runs the twelve paper queries
//! round-robin with `QueryEngine::query` under the default strategy,
//! options and execution configuration. Each pass also makes four
//! insert-then-remove pairs of facts no query can see, and one guarded
//! read that must trip its intermediate-tuple budget. Passes rotate over
//! `UNIVERSITIES` generated universities, one engine each, so a run's
//! figures are the mean over several draws of the data rather than one.

use std::time::Instant;

use gq_core::{EngineError, QueryEngine, QueryLimits};

use crate::common::{
    cpu_time, cpu_timed, push_end_to_end, timed, HostSpeed, Outcome, Rate, RunOpts, Samples,
    Tracer, SETUP_REPEATS,
};
use crate::data::{generate, load, suite, tuple, Answer, Uni};
use crate::layers::{replay_apply, replay_read, Counts, LayerMetrics, Write};

pub const STUDENTS: usize = 1000;
/// Universities a run rotates over; university `k` of a run with seed
/// `s` is generated from seed `s * UNIVERSITIES + k`. With one, the
/// query cost of a single draw moved the read median by 10–15% from seed
/// to seed.
pub const UNIVERSITIES: u64 = 4;
/// Passes on one university before the next one's turn, so each turn
/// runs on warm caches.
const PASSES_PER_TURN: usize = 4;

/// The guarded read runs on a fixed university, independent of the
/// run's seed, so it fails or passes the same way on every run.
const GUARD_STUDENTS: usize = 300;
const GUARD_SEED: u64 = 42;
/// `E2E_SUITE[1]`, the nested-exists query, must build more than one
/// intermediate tuple on any evaluator.
const GUARD_QUERY: usize = 1;
const GUARD_BUDGET: u64 = 1;

/// Facts about a name no student, professor or member has: inserted and
/// removed again before the next read, so every answer stays fixed.
fn write_pairs() -> Vec<Write> {
    let mut out = Vec::new();
    for (relation, values) in [
        ("attends", ["w0", "l0"]),
        ("enrolled", ["w0", "d0"]),
        ("skill", ["w0", "db"]),
        ("speaks", ["w0", "lang1"]),
    ] {
        for insert in [true, false] {
            out.push(Write {
                insert,
                relation,
                tuple: tuple(&values),
            });
        }
    }
    out
}

/// The seed of university `k` of a run with seed `seed`.
pub fn university_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(UNIVERSITIES).wrapping_add(k)
}

struct Engines {
    /// One engine per university.
    mains: Vec<QueryEngine>,
    guarded: QueryEngine,
}

/// Per-pass state shared by the warm-up and the measured loop.
struct Pass<'a> {
    engines: &'a Engines,
    /// Reference answers, per university.
    answers: &'a [Vec<Answer>],
    writes: &'a [Write],
}

#[derive(Default)]
struct Timings {
    reads: Samples,
    writes: Samples,
    rate: Rate,
}

impl Pass<'_> {
    /// One untraced pass on university `u`: every paper query, the
    /// guarded read, the write pairs. Counts ops into `out` and `t` when
    /// `count` is set.
    fn run(&self, u: usize, out: &mut Outcome, t: &mut Timings, count: bool) {
        let engine = &self.engines.mains[u];
        for (i, (label, text)) in gq_bench::E2E_SUITE.iter().enumerate() {
            let (r, cpu) = cpu_timed(|| engine.query(text));
            self.check_read(out, label, &r, u, i);
            if count {
                t.reads.push(cpu);
                t.rate.tick(cpu);
                out.attempt("read", r.is_err());
            }
        }
        let (guarded_ok, cpu) = cpu_timed(|| self.guarded_read());
        if count {
            t.rate.tick(cpu);
            out.attempt("guarded-read", !guarded_ok);
        }
        for w in self.writes {
            let (r, cpu) = cpu_timed(|| w.run(engine));
            check_write(out, w, &r);
            if count {
                t.writes.push(cpu);
                t.rate.tick(cpu);
                out.attempt("write", r.is_err());
            }
        }
    }

    fn check_read(
        &self,
        out: &mut Outcome,
        label: &str,
        r: &Result<gq_core::QueryResult, EngineError>,
        u: usize,
        i: usize,
    ) {
        match r {
            Ok(res) => {
                if let Err(e) = self.answers[u][i].check(res) {
                    out.wrong(format!("{label}: {e}"));
                }
            }
            Err(e) => eprintln!("{label} failed: {e}"),
        }
    }

    /// `analyze` of the nested-exists query under a one-tuple budget:
    /// the correct outcome is `ResourceExhausted`.
    fn guarded_read(&self) -> bool {
        let text = gq_bench::E2E_SUITE[GUARD_QUERY].1;
        matches!(
            self.engines.guarded.analyze(text),
            Err(EngineError::ResourceExhausted { .. })
        )
    }
}

fn check_write(out: &mut Outcome, w: &Write, r: &Result<bool, EngineError>) {
    match r {
        Ok(true) => {}
        Ok(false) => out.wrong(format!(
            "{} {}{} reported no change",
            if w.insert { "insert" } else { "remove" },
            w.relation,
            w.tuple
        )),
        Err(e) => eprintln!("write {}{} failed: {e}", w.relation, w.tuple),
    }
}

pub fn run(opts: &RunOpts) -> Outcome {
    let rels: Vec<_> = (0..UNIVERSITIES)
        .map(|k| generate(STUDENTS, university_seed(opts.seed, k)))
        .collect();
    let guard_rels = generate(GUARD_STUDENTS, GUARD_SEED);
    let answers: Vec<Vec<Answer>> = rels.iter().map(|r| suite(&Uni::new(r))).collect();
    let writes = write_pairs();
    let mut out = Outcome::new();
    let mut setups = Vec::new();
    let mut engines = None;
    for _ in 0..SETUP_REPEATS {
        drop(engines.take());
        let start = cpu_time();
        let e = Engines {
            mains: rels.iter().map(|r| QueryEngine::new(load(r))).collect(),
            guarded: QueryEngine::new(load(&guard_rels))
                .with_limits(QueryLimits::UNLIMITED.with_max_intermediate_tuples(GUARD_BUDGET)),
        };
        let pass = Pass {
            engines: &e,
            answers: &answers,
            writes: &writes,
        };
        for u in 0..rels.len() {
            pass.run(u, &mut out, &mut Timings::default(), false);
        }
        setups.push((cpu_time() - start).as_secs_f64());
        engines = Some(e);
    }
    let engines = engines.expect("at least one set-up");
    let pass = Pass {
        engines: &engines,
        answers: &answers,
        writes: &writes,
    };
    if opts.trace {
        traced(opts, &pass, &mut out);
        return out;
    }
    let start = Instant::now();
    let mut t = Timings {
        rate: Rate::new(start),
        ..Timings::default()
    };
    let mut host = HostSpeed::new();
    // Whole rotations, so every university gets the same number of passes.
    while start.elapsed() < opts.budget() {
        for u in 0..rels.len() {
            for _ in 0..PASSES_PER_TURN {
                pass.run(u, &mut out, &mut t, true);
                host.sample_if_due();
            }
        }
    }
    push_end_to_end(&mut out, &host, setups, &t.rate, &t.reads, &t.writes);
    out
}

/// The traced run: untraced and traced passes alternate; traced passes
/// replay each operation's layers after the production call. Both run on
/// the first university only, so the per-read operation counts repeat
/// exactly at a fixed seed however many rounds a run makes.
fn traced(opts: &RunOpts, pass: &Pass<'_>, out: &mut Outcome) {
    let engine = &pass.engines.mains[0];
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut plain = Timings::default();
    let mut traced_reads = Samples::default();
    let mut op = 0u64;
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < opts.budget() || round % 2 == 1 {
        if round.is_multiple_of(2) {
            let before = engine.journal().appends();
            let ops_before = out.attempted();
            pass.run(0, out, &mut plain, true);
            counts.journal_events += engine.journal().appends() - before;
            counts.plain_ops += out.attempted() - ops_before;
        } else {
            for (i, (label, text)) in gq_bench::E2E_SUITE.iter().enumerate() {
                op += 1;
                let ((r, a, b), cpu) = cpu_timed(|| timed(|| engine.query(text)));
                pass.check_read(out, label, &r, 0, i);
                out.attempt("read", r.is_err());
                traced_reads.push(cpu);
                let root = tracer.record("core.query", 0, op, a, b);
                if let Ok(res) = &r {
                    counts.add_exec(&res.stats);
                }
                replay_read(engine, text, &mut tracer, &mut counts, root, op);
            }
            op += 1;
            let (ok, a, b) = timed(|| pass.guarded_read());
            tracer.record("core.guarded", 0, op, a, b);
            out.attempt("guarded-read", !ok);
            for w in pass.writes {
                op += 1;
                let (_, ra, rb) = replay_apply(engine, w);
                let (r, a, b) = timed(|| w.run(engine));
                check_write(out, w, &r);
                out.attempt("write", r.is_err());
                let root = tracer.record("core.write", 0, op, a, b);
                tracer.record("storage.apply", root, op, ra, rb);
                counts.writes += 1;
            }
        }
        round += 1;
    }
    let path = opts
        .work_dir
        .join(format!("trace-paper-queries-{}.jsonl", opts.seed));
    if let Err(e) = tracer.write(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
    let selfs = tracer.self_ns();
    let cache = engine.plan_cache_stats();
    let m = LayerMetrics::new(&selfs, &counts);
    m.read_phases(out, cache);
    m.no_server(out);
    m.apply(out);
    m.no_durability(out);
    m.no_ivm(out);
    m.overhead(out, &traced_reads, &plain.reads);
}
