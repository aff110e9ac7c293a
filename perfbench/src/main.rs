//! The benchmark binary: `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1> --work-dir <dir>` runs one workload and
//! prints its result as one JSON line, last on standard output;
//! `perfbench references --seed <n>` prints the reference answers.

mod common;
mod data;
mod durable;
mod layers;
mod paper;
mod served;

use common::{Outcome, RunOpts};

const WORKLOADS: [&str; 3] = ["paper-queries", "served-mix", "durable-views"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n       perfbench references --seed <n>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str) -> u64 {
    match flag(args, name).map(str::parse) {
        Some(Ok(n)) => n,
        _ => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("references") {
        data::print_references(number(&args, "--seed"));
        return;
    }
    let workload = flag(&args, "--workload").unwrap_or_else(|| usage());
    let opts = RunOpts {
        seed: number(&args, "--seed"),
        seconds: number(&args, "--seconds"),
        trace: number(&args, "--trace") == 1,
        work_dir: flag(&args, "--work-dir").unwrap_or_else(|| usage()).into(),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("cannot create {}: {e}", opts.work_dir.display());
        std::process::exit(1);
    }
    let out: Outcome = match workload {
        "paper-queries" => paper::run(&opts),
        "served-mix" => served::run(&opts),
        "durable-views" => durable::run(&opts),
        _ => usage(),
    };
    println!("{workload:<16} {:>10} {:>8}", "attempted", "failed");
    for (kind, t) in &out.ops {
        println!("  {kind:<14} {:>10} {:>8}", t.attempted, t.failed);
    }
    for p in &out.problems {
        println!("wrong answer: {p}");
    }
    println!("{}", out.json());
}
