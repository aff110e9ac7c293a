//! Generated inputs and the reference answers computed from them with
//! plain set operations, outside the engine and outside timed regions.

use std::collections::{HashMap, HashSet};

use gq_core::QueryResult;
use gq_storage::{Database, Relation, Schema, Tuple, Value};
use gq_workload::{university, UniversityScale};

/// One generated relation: name, attribute names, tuples in load order.
pub struct RelData {
    pub name: String,
    pub attrs: Vec<String>,
    pub tuples: Vec<Tuple>,
}

/// The generated university of `students` students for `seed`, as plain
/// tuples sorted by relation name.
pub fn generate(students: usize, seed: u64) -> Vec<RelData> {
    let mut scale = UniversityScale::of_size(students);
    scale.seed = seed;
    let db = university(&scale);
    let mut rels: Vec<RelData> = db
        .relations()
        .map(|r| RelData {
            name: r.name().to_string(),
            attrs: r.schema().attributes().map(String::from).collect(),
            tuples: r.iter().cloned().collect(),
        })
        .collect();
    rels.sort_by(|a, b| a.name.cmp(&b.name));
    rels
}

/// Build a relation from generated tuples.
pub fn relation(r: &RelData) -> Relation {
    Relation::with_tuples(
        r.name.clone(),
        Schema::new(r.attrs.clone()).expect("generated schema is valid"),
        r.tuples.iter().cloned(),
    )
    .expect("generated tuples are valid")
}

/// Load generated tuples into a fresh in-memory catalog.
pub fn load(rels: &[RelData]) -> Database {
    let mut db = Database::new();
    for r in rels {
        db.add_relation(relation(r))
            .expect("generated relation names are distinct");
    }
    db
}

pub fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.to_string(),
        other => other.to_string(),
    }
}

pub fn tuple(values: &[&str]) -> Tuple {
    Tuple::new(values.iter().map(|v| Value::str(*v)).collect())
}

/// A binary relation as a pair set plus an index on the first column.
#[derive(Default, Clone)]
pub struct Rel2 {
    pairs: HashSet<(String, String)>,
    by_first: HashMap<String, HashSet<String>>,
}

impl Rel2 {
    pub fn has(&self, a: &str, b: &str) -> bool {
        self.by_first.get(a).is_some_and(|s| s.contains(b))
    }

    /// Second-column values paired with `a`.
    pub fn of(&self, a: &str) -> impl Iterator<Item = &String> {
        self.by_first.get(a).into_iter().flatten()
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, String)> {
        self.pairs.iter()
    }

    pub fn insert(&mut self, a: &str, b: &str) -> bool {
        self.by_first
            .entry(a.to_string())
            .or_default()
            .insert(b.to_string());
        self.pairs.insert((a.to_string(), b.to_string()))
    }

    pub fn remove(&mut self, a: &str, b: &str) -> bool {
        if let Some(s) = self.by_first.get_mut(a) {
            s.remove(b);
        }
        self.pairs.remove(&(a.to_string(), b.to_string()))
    }
}

/// The university as plain sets.
#[derive(Default, Clone)]
pub struct Uni {
    pub student: HashSet<String>,
    pub prof: HashSet<String>,
    pub lecture: Rel2,
    pub attends: Rel2,
    pub enrolled: Rel2,
    pub speaks: Rel2,
    pub makes: Rel2,
    pub member: Rel2,
    pub skill: Rel2,
}

impl Uni {
    pub fn new(rels: &[RelData]) -> Self {
        let mut u = Uni::default();
        for r in rels {
            for t in &r.tuples {
                let v: Vec<String> = t.values().map(text).collect();
                match r.name.as_str() {
                    "student" => {
                        u.student.insert(v[0].clone());
                    }
                    "prof" => {
                        u.prof.insert(v[0].clone());
                    }
                    name => {
                        u.rel2_mut(name).insert(&v[0], &v[1]);
                    }
                }
            }
        }
        u
    }

    pub fn rel2_mut(&mut self, name: &str) -> &mut Rel2 {
        match name {
            "lecture" => &mut self.lecture,
            "attends" => &mut self.attends,
            "enrolled" => &mut self.enrolled,
            "speaks" => &mut self.speaks,
            "makes" => &mut self.makes,
            "member" => &mut self.member,
            "skill" => &mut self.skill,
            other => panic!("no binary relation `{other}` in the university schema"),
        }
    }

    /// Does lecture `y` belong to some department `x` is not enrolled in?
    pub fn foreign_lecture(&self, x: &str, y: &str) -> bool {
        self.lecture.of(y).any(|d| !self.enrolled.has(x, d))
    }

    /// `cj(x, y)` rows for one student: the complement-join view
    /// `attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))`.
    pub fn cj_of(&self, x: &str) -> HashSet<Tuple> {
        self.attends
            .of(x)
            .filter(|y| self.foreign_lecture(x, y))
            .map(|y| tuple(&[y]))
            .collect()
    }

    /// `fig4(x)`: `student(x) & (!enrolled(x,"d0") | skill(x,"db"))`.
    pub fn fig4(&self, x: &str) -> bool {
        self.student.contains(x) && (!self.enrolled.has(x, "d0") || self.skill.has(x, "db"))
    }

    /// Students attending every `d0` lecture.
    fn all_d0(&self) -> HashSet<Tuple> {
        let d0: Vec<&String> = self
            .lecture
            .iter()
            .filter(|(_, d)| d == "d0")
            .map(|(y, _)| y)
            .collect();
        self.student
            .iter()
            .filter(|x| d0.iter().all(|y| self.attends.has(x, y)))
            .map(|x| tuple(&[x]))
            .collect()
    }

    fn students_where(&self, keep: impl Fn(&str) -> bool) -> HashSet<Tuple> {
        self.student
            .iter()
            .filter(|x| keep(x))
            .map(|x| tuple(&[x]))
            .collect()
    }
}

/// An expected answer: rows over answer variables in name order, or a
/// truth value for a closed query.
pub enum Answer {
    Rows {
        vars: Vec<&'static str>,
        rows: HashSet<Tuple>,
    },
    Bool(bool),
}

impl Answer {
    fn rows(vars: &[&'static str], rows: HashSet<Tuple>) -> Self {
        Answer::Rows {
            vars: vars.to_vec(),
            rows,
        }
    }

    /// Number of rows (1/0 for a closed query).
    pub fn len(&self) -> usize {
        match self {
            Answer::Rows { rows, .. } => rows.len(),
            Answer::Bool(b) => usize::from(*b),
        }
    }

    /// Compare an engine result against this answer.
    pub fn check(&self, result: &QueryResult) -> Result<(), String> {
        match self {
            Answer::Bool(expected) => {
                if !result.vars.is_empty() || result.is_true() != *expected {
                    return Err(format!(
                        "expected {expected}, got {} answers over {} variables",
                        result.len(),
                        result.vars.len()
                    ));
                }
                Ok(())
            }
            Answer::Rows { vars, rows } => {
                let names: Vec<&str> = result.vars.iter().map(|v| v.name()).collect();
                let perm: Option<Vec<usize>> = vars
                    .iter()
                    .map(|v| names.iter().position(|n| n == v))
                    .collect();
                let Some(perm) = perm.filter(|p| p.len() == names.len()) else {
                    return Err(format!("answer variables {names:?}, expected {vars:?}"));
                };
                if result.answers.len() != rows.len() {
                    return Err(format!(
                        "{} answers, expected {}",
                        result.answers.len(),
                        rows.len()
                    ));
                }
                let identity = perm.iter().enumerate().all(|(i, &p)| i == p);
                let missing = result.answers.iter().find(|t| {
                    if identity {
                        !rows.contains(*t)
                    } else {
                        !rows.contains(&t.project(&perm))
                    }
                });
                match missing {
                    Some(t) => Err(format!("unexpected answer {t}")),
                    None => Ok(()),
                }
            }
        }
    }

    /// The body of a server reply: sorted tuple lines and the count line
    /// prefix (the count line's trailing statistics are not checked).
    pub fn reply_prefix(&self) -> String {
        match self {
            Answer::Bool(b) => b.to_string(),
            Answer::Rows { rows, .. } => {
                let mut sorted: Vec<&Tuple> = rows.iter().collect();
                sorted.sort();
                let mut out = String::new();
                for t in sorted {
                    out.push_str(&format!("{t}\n"));
                }
                let n = rows.len();
                out.push_str(&format!("{n} answer{} (", if n == 1 { "" } else { "s" }));
                out
            }
        }
    }
}

/// Labels of `gq_bench::E2E_SUITE`, in order, that [`suite`] answers.
pub const SUITE_LABELS: [&str; 12] = [
    "neg-filter (§3.1 Q2)",
    "nested-exists (P4 c1)",
    "nested-neg-atom (P4 c2a)",
    "correlated (P4 c2b)",
    "neg-subquery (P4 c3)",
    "only-d0 (P4 c4)",
    "all-d0 (P4 c5, division)",
    "disj-filter (P5)",
    "disj-neg (Fig 4)",
    "producer-or (§2.3)",
    "closed-forall-exists",
    "closed-exists-forall (division)",
];

/// Reference answers to the twelve paper queries of
/// `gq_bench::E2E_SUITE`, in suite order.
pub fn suite(u: &Uni) -> Vec<Answer> {
    for ((label, _), expected) in gq_bench::E2E_SUITE.iter().zip(SUITE_LABELS) {
        assert_eq!(*label, expected, "E2E_SUITE changed; update the references");
    }
    let foreign = |x: &str| u.attends.of(x).any(|y| u.foreign_lecture(x, y));
    let home = |x: &str| {
        u.attends
            .of(x)
            .any(|y| u.lecture.of(y).any(|d| u.enrolled.has(x, d)))
    };
    let attendees = |keep: &dyn Fn(&str) -> bool| -> HashSet<Tuple> {
        u.attends
            .iter()
            .filter(|(x, _)| keep(x))
            .map(|(x, _)| tuple(&[x]))
            .collect()
    };
    let all_d0 = u.all_d0();
    let speaks_0_or_1 = |x: &str| u.speaks.has(x, "lang0") || u.speaks.has(x, "lang1");
    let producer_or: HashSet<Tuple> = u
        .student
        .iter()
        .filter(|x| u.makes.has(x, "PhD"))
        .chain(u.prof.iter())
        .filter(|x| speaks_0_or_1(x))
        .map(|x| tuple(&[x]))
        .collect();
    vec![
        Answer::rows(
            &["x", "z"],
            u.member
                .iter()
                .filter(|(x, _)| !u.skill.has(x, "db"))
                .map(|(x, z)| tuple(&[x, z]))
                .collect(),
        ),
        Answer::rows(&["x"], attendees(&home)),
        Answer::rows(&["x"], attendees(&foreign)),
        Answer::rows(
            &["x", "y"],
            u.attends
                .iter()
                .filter(|(x, y)| u.foreign_lecture(x, y))
                .map(|(x, y)| tuple(&[x, y]))
                .collect(),
        ),
        Answer::rows(
            &["x"],
            u.students_where(|x| !u.attends.of(x).any(|y| u.lecture.has(y, "d1"))),
        ),
        Answer::rows(
            &["x"],
            u.students_where(|x| !u.attends.of(x).any(|y| !u.lecture.has(y, "d0"))),
        ),
        Answer::rows(&["x"], all_d0.clone()),
        Answer::rows(
            &["x"],
            u.students_where(|x| {
                u.skill.has(x, "db") || u.speaks.has(x, "lang1") || u.makes.has(x, "PhD")
            }),
        ),
        Answer::rows(&["x"], u.students_where(|x| u.fig4(x))),
        Answer::rows(&["x"], producer_or),
        Answer::Bool(u.student.iter().all(|x| u.enrolled.of(x).next().is_some())),
        Answer::Bool(!all_d0.is_empty()),
    ]
}

/// Print the reference answers for `seed` at every workload's scale:
/// one line per query with its row count, then the rows.
pub fn print_references(seed: u64) {
    let paper_seeds =
        (0..crate::paper::UNIVERSITIES).map(|k| crate::paper::university_seed(seed, k));
    let inputs = paper_seeds
        .map(|s| ("paper-queries", crate::paper::STUDENTS, s))
        .chain([
            ("served-mix", crate::served::STUDENTS, seed),
            ("durable-views", crate::durable::STUDENTS, seed),
        ]);
    for (workload, students, seed) in inputs {
        let rels = generate(students, seed);
        let u = Uni::new(&rels);
        println!("# {workload}: {students} students, generated from seed {seed}");
        for r in &rels {
            println!("#   {}: {} tuples", r.name, r.tuples.len());
        }
        for ((label, query), answer) in gq_bench::E2E_SUITE.iter().zip(suite(&u)) {
            println!("{label}\t{query}\t{} rows", answer.len());
            match &answer {
                Answer::Bool(b) => println!("  {b}"),
                Answer::Rows { rows, .. } => {
                    let mut sorted: Vec<&Tuple> = rows.iter().collect();
                    sorted.sort();
                    for t in sorted {
                        println!("  {t}");
                    }
                }
            }
        }
    }
}
