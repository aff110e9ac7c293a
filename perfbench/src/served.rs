//! `served-mix`: `gq-server` on loopback with one client connection
//! over a small university. About 80% of operations are reads drawn
//! with skewed popularity from a fixed set of query texts (the paper
//! queries, closed integrity checks, hot point queries); the rest are
//! `.insert`/`.remove` pairs of facts about names outside
//! `student`/`prof`/`member`, each confirmed by a read-your-writes
//! query from the client that made it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gq_core::{EngineOptions, QueryEngine, QueryLimits, Strategy};
use gq_governor::CancelToken;
use gq_server::frame::{self, DEFAULT_MAX_FRAME_BYTES};
use gq_server::session::SessionState;
use gq_server::{protocol, Admission, AdmissionConfig, Client, Reply, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    cpu_time, cpu_timed, per_op_us, push_end_to_end, ratio, timed, HostSpeed, Outcome, Rate,
    RunOpts, Samples, Tracer, SETUP_REPEATS,
};
use crate::data::{generate, load, suite, tuple, Answer, Uni};
use crate::layers::{replay_apply, replay_read, Counts, LayerMetrics, Write};

pub const STUDENTS: usize = 100;
/// Client connections, one thread each. With two on this two-core host
/// each client's writes queued behind the other's parallel reads, and
/// the write p99 followed the host's load (quartile spread 35% over ten
/// seeds, against 25% with one).
const CLIENTS: usize = 1;
/// Students the hot point queries ask about.
const POINT_STUDENTS: usize = 20;
/// Each round: this many write pairs, each preceded by this many reads.
const PAIRS_PER_ROUND: usize = 10;
const READS_PER_PAIR: usize = 6;

/// Closed integrity checks over relations the writes never touch.
const CHECKS: [&str; 4] = [
    "!(exists x. exists y. attends(x,y) & !student(x))",
    "!(exists x. exists y. attends(x,y) & !(exists d. lecture(y,d)))",
    "!(exists x. exists d. enrolled(x,d) & !student(x))",
    "!(exists x. exists d. member(x,d) & !student(x) & !prof(x))",
];

/// Relations the writes go to, with the second value of each fact.
const WRITE_RELATIONS: [(&str, &str); 3] = [("skill", "db"), ("speaks", "lang1"), ("makes", "PhD")];

/// A read: its text and the reply body it must produce.
struct ReadText {
    text: String,
    expected: Answer,
    prefix: String,
}

impl ReadText {
    fn new(text: String, expected: Answer) -> Self {
        let prefix = expected.reply_prefix();
        ReadText {
            text,
            expected,
            prefix,
        }
    }

    fn matches(&self, reply: &Reply) -> bool {
        reply.ok
            && match self.expected {
                Answer::Bool(_) => reply.body == self.prefix,
                Answer::Rows { .. } => reply.body.starts_with(&self.prefix),
            }
    }
}

/// The fixed set of read texts, with reference answers.
fn read_texts(u: &Uni, rng: &mut StdRng) -> Vec<ReadText> {
    let mut out: Vec<ReadText> = gq_bench::E2E_SUITE
        .iter()
        .zip(suite(u))
        .map(|((_, text), answer)| ReadText::new(text.to_string(), answer))
        .collect();
    let checks = [
        u.attends.iter().all(|(x, _)| u.student.contains(x)),
        u.attends
            .iter()
            .all(|(_, y)| u.lecture.of(y).next().is_some()),
        u.enrolled.iter().all(|(x, _)| u.student.contains(x)),
        u.member
            .iter()
            .all(|(x, _)| u.student.contains(x) || u.prof.contains(x)),
    ];
    for (text, holds) in CHECKS.iter().zip(checks) {
        out.push(ReadText::new(text.to_string(), Answer::Bool(holds)));
    }
    for _ in 0..POINT_STUDENTS {
        let s = format!("s{}", rng.gen_range(0..STUDENTS));
        for (relation, var) in [("attends", "y"), ("enrolled", "d"), ("skill", "t")] {
            let rel = match relation {
                "attends" => &u.attends,
                "enrolled" => &u.enrolled,
                _ => &u.skill,
            };
            let rows = rel.of(&s).map(|v| tuple(&[v])).collect();
            out.push(ReadText::new(
                format!("{relation}(\"{s}\", {var})"),
                Answer::Rows {
                    vars: vec![var],
                    rows,
                },
            ));
        }
    }
    out
}

/// One step of a client's schedule.
#[derive(Clone, Copy)]
enum Step {
    Read(usize),
    Insert(usize),
    Remove(usize),
    /// Read-your-writes: is the client's fact present?
    Confirm(usize, bool),
}

/// A client's facts and its per-round schedule.
struct ClientPlan {
    facts: Vec<Write>,
    lines: Vec<(String, String, String)>,
    schedule: Vec<Step>,
}

fn client_plan(c: usize, texts: usize) -> ClientPlan {
    let mut facts = Vec::new();
    let mut lines = Vec::new();
    for k in 0..PAIRS_PER_ROUND {
        let (relation, second) = WRITE_RELATIONS[k % WRITE_RELATIONS.len()];
        let name = format!("w{c}_{k}");
        facts.push(Write {
            insert: true,
            relation,
            tuple: tuple(&[&name, second]),
        });
        lines.push((
            format!(".insert {relation}(\"{name}\", \"{second}\")"),
            format!(".remove {relation}(\"{name}\", \"{second}\")"),
            format!("{relation}(\"{name}\", \"{second}\")"),
        ));
    }
    // Zipf-like popularity over a ranking of the read texts. Ranking and
    // schedule do not depend on the run's seed (the data and the point
    // queries' students do), so every run sends the same mix of query
    // shapes: a seeded schedule made which paper queries are hot, and
    // with it the throughput, differ by a third between seeds.
    let mut rng = StdRng::seed_from_u64(0x5eed_0000 + c as u64);
    let mut rank: Vec<usize> = (0..texts).collect();
    for i in (1..rank.len()).rev() {
        rank.swap(i, rng.gen_range(0..=i));
    }
    let weights: Vec<f64> = (0..texts).map(|k| 1.0 / (k + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut schedule = Vec::new();
    for k in 0..PAIRS_PER_ROUND {
        for _ in 0..READS_PER_PAIR {
            let mut x = rng.gen_range(0..1u64 << 40) as f64 / (1u64 << 40) as f64 * total;
            let mut pick = texts - 1;
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    pick = i;
                    break;
                }
                x -= w;
            }
            schedule.push(Step::Read(rank[pick]));
        }
        schedule.push(Step::Insert(k));
        schedule.push(Step::Confirm(k, true));
        schedule.push(Step::Remove(k));
        schedule.push(Step::Confirm(k, false));
    }
    ClientPlan {
        facts,
        lines,
        schedule,
    }
}

impl ClientPlan {
    fn line<'a>(&'a self, step: Step, texts: &'a [ReadText]) -> &'a str {
        match step {
            Step::Read(i) => &texts[i].text,
            Step::Insert(k) => &self.lines[k].0,
            Step::Remove(k) => &self.lines[k].1,
            Step::Confirm(k, _) => &self.lines[k].2,
        }
    }

    fn write(&self, step: Step) -> Option<Write> {
        match step {
            Step::Insert(k) => Some(self.facts[k].clone()),
            Step::Remove(k) => Some(Write {
                insert: false,
                ..self.facts[k].clone()
            }),
            _ => None,
        }
    }
}

/// Check one reply against what `step` must produce.
fn check(step: Step, reply: &Result<Reply, gq_server::ClientError>, texts: &[ReadText]) -> bool {
    let Ok(reply) = reply else { return false };
    match step {
        Step::Read(i) => texts[i].matches(reply),
        Step::Insert(_) => reply.ok && reply.body == "inserted",
        Step::Remove(_) => reply.ok && reply.body == "removed",
        Step::Confirm(_, present) => reply.ok && reply.body == present.to_string(),
    }
}

fn kind(step: Step) -> &'static str {
    match step {
        Step::Read(_) => "read",
        Step::Confirm(..) => "confirm-read",
        Step::Insert(_) | Step::Remove(_) => "write",
    }
}

struct Served {
    engine: Arc<QueryEngine>,
    server: Server,
    clients: Vec<Client>,
}

fn set_up(
    rels: &[crate::data::RelData],
    plans: &[ClientPlan],
    texts: &[ReadText],
    out: &mut Outcome,
) -> Served {
    let engine = Arc::new(QueryEngine::new(load(rels)));
    let server = Server::start(Arc::clone(&engine), ServerConfig::default())
        .expect("server binds to loopback");
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()).expect("client connects"))
        .collect();
    Served {
        engine,
        server,
        clients,
    }
    .warm(plans, texts, out)
}

impl Served {
    /// One warm-up pass over every distinct operation: each read text
    /// once, each client's write cycle once.
    fn warm(mut self, plans: &[ClientPlan], texts: &[ReadText], out: &mut Outcome) -> Self {
        for (i, t) in texts.iter().enumerate() {
            let r = self.clients[0].send(&t.text);
            if !check(Step::Read(i), &r, texts) {
                out.wrong(format!("warm-up `{}` answered {r:?}", t.text));
            }
        }
        for (c, plan) in plans.iter().enumerate() {
            for k in 0..PAIRS_PER_ROUND {
                for step in [
                    Step::Insert(k),
                    Step::Confirm(k, true),
                    Step::Remove(k),
                    Step::Confirm(k, false),
                ] {
                    let r = self.clients[c].send(plan.line(step, texts));
                    if !check(step, &r, texts) {
                        out.wrong(format!(
                            "warm-up `{}` answered {r:?}",
                            plan.line(step, texts)
                        ));
                    }
                }
            }
        }
        self
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientResult {
    out: Option<Outcome>,
    reads: Samples,
    writes: Samples,
    traced_reads: Samples,
    plain_reads: Samples,
    rate: Rate,
    host: Option<HostSpeed>,
    tracer: Option<Tracer>,
    counts: Counts,
}

/// Round-boundary coordination for the traced run, so untraced rounds
/// run with no replay beside them and their journal appends can be
/// attributed to them.
struct Rounds {
    barrier: Barrier,
    go_on: AtomicBool,
}

pub fn run(opts: &RunOpts) -> Outcome {
    let rels = generate(STUDENTS, opts.seed);
    let u = Uni::new(&rels);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let texts = read_texts(&u, &mut rng);
    let plans: Vec<ClientPlan> = (0..CLIENTS).map(|c| client_plan(c, texts.len())).collect();
    let mut out = Outcome::new();
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(mut s) = served.take() {
            shut_down(&mut s);
        }
        let start = cpu_time();
        served = Some(set_up(&rels, &plans, &texts, &mut out));
        setups.push((cpu_time() - start).as_secs_f64());
    }
    let mut served: Served = served.expect("at least one set-up");
    let engine = Arc::clone(&served.engine);
    let rounds = Rounds {
        barrier: Barrier::new(CLIENTS),
        go_on: AtomicBool::new(true),
    };
    let budget = opts.budget();
    let start = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(&plans)
            .enumerate()
            .map(|(c, (client, plan))| {
                let (engine, texts, rounds) = (&engine, &texts, &rounds);
                scope.spawn(move || {
                    if opts.trace {
                        traced_client(c, client, plan, texts, engine, rounds, start, budget)
                    } else {
                        plain_client(client, plan, texts, start, budget)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut rate = Rate::new(start);
    let mut reads = Samples::default();
    let mut writes = Samples::default();
    let mut traced_reads = Samples::default();
    let mut plain_reads = Samples::default();
    let mut counts = Counts::default();
    let mut host: Option<HostSpeed> = None;
    let mut selfs = std::collections::BTreeMap::new();
    let mut totals = std::collections::BTreeMap::new();
    for (c, r) in results.into_iter().enumerate() {
        let o = r.out.expect("client outcome");
        for (k, t) in o.ops {
            let e = out.ops.entry(k).or_default();
            e.attempted += t.attempted;
            e.failed += t.failed;
        }
        for p in o.problems {
            out.wrong(p);
        }
        reads.extend(r.reads);
        writes.extend(r.writes);
        rate.extend(r.rate);
        traced_reads.extend(r.traced_reads);
        plain_reads.extend(r.plain_reads);
        counts.merge(&r.counts);
        match (&mut host, r.host) {
            (Some(h), Some(other)) => h.extend(other),
            (h, other) => *h = h.take().or(other),
        }
        if let Some(t) = r.tracer {
            for (k, v) in t.self_ns() {
                *selfs.entry(k).or_insert(0) += v;
            }
            for (k, v) in t.total_ns() {
                *totals.entry(k).or_insert(0) += v;
            }
            let path = opts
                .work_dir
                .join(format!("trace-served-mix-{}-client{c}.jsonl", opts.seed));
            if let Err(e) = t.write(&path) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
    }
    let cache = engine.plan_cache_stats();
    shut_down(&mut served);
    if opts.trace {
        let m = LayerMetrics::new(&selfs, &counts);
        m.read_phases(&mut out, cache);
        let requests = counts.requests;
        out.metric(
            "server.frame_us",
            per_op_us(&selfs, "server.frame", requests),
            "us",
        );
        out.metric(
            "server.dispatch_us",
            per_op_us(&selfs, "server.dispatch", counts.reads),
            "us",
        );
        out.metric(
            "server.socket_us",
            per_op_us(&selfs, "server.roundtrip", counts.reads),
            "us",
        );
        let roundtrips = totals.get("server.roundtrip").copied().unwrap_or(0)
            + totals.get("server.write").copied().unwrap_or(0);
        out.metric(
            "server.roundtrip_us",
            ratio(roundtrips.max(0) as u64, requests) / 1e3,
            "us",
        );
        m.apply(&mut out);
        m.no_durability(&mut out);
        m.no_ivm(&mut out);
        m.overhead(&mut out, &traced_reads, &plain_reads);
        return out;
    }
    let host = host.expect("untraced clients time the host");
    push_end_to_end(&mut out, &host, setups, &rate, &reads, &writes);
    out
}

fn shut_down(s: &mut Served) {
    for c in &mut s.clients {
        let _ = c.send(".close");
    }
    s.clients.clear();
    s.server.shutdown();
}

/// Send one scheduled request and record its outcome. Returns the reply,
/// its wall-clock latency and the CPU time the process (client and
/// server threads) spent on it.
fn send_step(
    client: &mut Client,
    plan: &ClientPlan,
    texts: &[ReadText],
    step: Step,
    out: &mut Outcome,
) -> (Result<Reply, gq_server::ClientError>, Duration, Duration) {
    let line = plan.line(step, texts);
    let ((reply, a, b), cpu) = cpu_timed(|| timed(|| client.send(line)));
    let good = check(step, &reply, texts);
    match &reply {
        Ok(r) if r.ok && !good => out.wrong(format!("`{line}` answered {:?}", r.body)),
        Ok(r) if !r.ok => eprintln!("`{line}` failed: {} {}", r.code, r.body),
        Err(e) => eprintln!("`{line}` failed: {e}"),
        _ => {}
    }
    out.attempt(kind(step), !matches!(&reply, Ok(r) if r.ok));
    (reply, b - a, cpu)
}

fn plain_client(
    client: &mut Client,
    plan: &ClientPlan,
    texts: &[ReadText],
    start: Instant,
    budget: Duration,
) -> ClientResult {
    let mut r = ClientResult {
        rate: Rate::new(start),
        ..ClientResult::default()
    };
    let mut out = Outcome::new();
    let mut host = HostSpeed::new();
    while start.elapsed() < budget {
        for &step in &plan.schedule {
            let (_, _, cpu) = send_step(client, plan, texts, step, &mut out);
            r.rate.tick(cpu);
            match step {
                Step::Insert(_) | Step::Remove(_) => r.writes.push(cpu),
                _ => r.reads.push(cpu),
            }
        }
        host.sample_if_due();
    }
    r.out = Some(out);
    r.host = Some(host);
    r
}

/// The traced client: rounds alternate between untraced and traced,
/// in step across clients. A traced round replays each request's
/// frame codec, in-process dispatch, engine call and read phases, and
/// each write's catalog apply.
#[allow(clippy::too_many_arguments)]
fn traced_client(
    c: usize,
    client: &mut Client,
    plan: &ClientPlan,
    texts: &[ReadText],
    engine: &QueryEngine,
    rounds: &Rounds,
    start: Instant,
    budget: Duration,
) -> ClientResult {
    let mut r = ClientResult::default();
    let mut out = Outcome::new();
    let mut tracer = Tracer::new();
    let admission = Admission::new(AdmissionConfig::default(), Arc::clone(engine.journal()));
    let mut session = SessionState::new(
        QueryLimits::UNLIMITED,
        CancelToken::new(),
        admission.budget(),
    );
    let mut op = (c as u64) << 40;
    let mut round = 0u64;
    let mut mark = 0u64;
    loop {
        // Both clients finish the previous round; client 0 closes the
        // journal window of an untraced round and decides whether to go on.
        rounds.barrier.wait();
        if c == 0 {
            let now = engine.journal().appends();
            // Round `round - 1` just ended; even rounds are untraced.
            if round % 2 == 1 {
                r.counts.journal_events += now - mark;
            }
            mark = now;
            let more = start.elapsed() < budget || round % 2 == 1;
            rounds.go_on.store(more, Ordering::SeqCst);
        }
        rounds.barrier.wait();
        if !rounds.go_on.load(Ordering::SeqCst) {
            break;
        }
        let traced = round % 2 == 1;
        for &step in &plan.schedule {
            let write = plan.write(step);
            if !traced {
                let (_, _, cpu) = send_step(client, plan, texts, step, &mut out);
                match step {
                    Step::Insert(_) | Step::Remove(_) => {}
                    _ => r.plain_reads.push(cpu),
                }
                r.counts.plain_ops += 1;
                continue;
            }
            op += 1;
            let line = plan.line(step, texts);
            let applied = write.as_ref().map(|w| replay_apply(engine, w));
            let a = Instant::now();
            let (reply, d, cpu) = send_step(client, plan, texts, step, &mut out);
            let root = tracer.record(
                if write.is_some() {
                    "server.write"
                } else {
                    "server.roundtrip"
                },
                0,
                op,
                a,
                a + d,
            );
            r.counts.requests += 1;
            let payload = match &reply {
                Ok(rep) if rep.ok => protocol::ok(&rep.body),
                _ => protocol::err("error", "replayed"),
            };
            let (_, fa, fb) = timed(|| {
                for bytes in [line.as_bytes(), payload.as_slice()] {
                    let framed = frame::encode(bytes);
                    let _ = std::hint::black_box(frame::decode(&framed, DEFAULT_MAX_FRAME_BYTES));
                }
            });
            tracer.record("server.frame", root, op, fa, fb);
            if let Some((_, aa, ab)) = applied {
                tracer.record("storage.apply", root, op, aa, ab);
                r.counts.writes += 1;
                continue;
            }
            r.traced_reads.push(cpu);
            let (_, da, db) = timed(|| session.dispatch(engine, &admission, line.as_bytes()));
            let dispatch = tracer.record("server.dispatch", root, op, da, db);
            let (res, qa, qb) = timed(|| {
                engine.query_session(
                    line,
                    Strategy::Improved,
                    EngineOptions::default(),
                    QueryLimits::UNLIMITED,
                    CancelToken::new(),
                    None,
                )
            });
            let query = tracer.record("core.query", dispatch, op, qa, qb);
            if let Ok(res) = &res {
                r.counts.add_exec(&res.stats);
            }
            replay_read(engine, line, &mut tracer, &mut r.counts, query, op);
        }
        round += 1;
    }
    r.out = Some(out);
    r.tracer = Some(tracer);
    r
}
