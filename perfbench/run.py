#!/usr/bin/env python3
"""Build and run the general-queries benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        Build the benchmark (release, offline) and run one workload. The
        last line of standard output is the result as one JSON object.

    python3 perfbench/run.py spread --workload <name> [--runs 10] [--seconds 30]
                                    [--trace 0] [--first-seed 1]
        Run one workload on consecutive seeds and print each metric's
        median, quartiles, min/max and quartile spread (as a share of the
        median), and the failed share of every run.

    python3 perfbench/run.py references --seed <n>
        Print the reference answers of every workload's inputs for a seed.

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); WAL directories and span traces go to
.perfbench_work.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-queries", "served-mix", "durable-views"]
# A run measures for --seconds and then checks recovery; it must end
# well inside three minutes.
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark binary; exit non-zero if the build fails."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"cannot run cargo: {e}", file=sys.stderr)
        sys.exit(1)
    if done.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        sys.exit(1)
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Run one workload; return (exit code, standard output)."""
    work = os.path.abspath(".perfbench_work")
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work,
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print(f"{workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def spread(binary, args):
    values = {}
    units = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        code, out = run_once(binary, args.workload, seed, args.seconds, args.trace)
        if code != 0 or not out.strip():
            print(f"seed {seed}: exit {code}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect answers", file=sys.stderr)
        shares.append(f'{result["failed"]}/{result["attempted"]}')
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s, trace {args.trace}")
    print(f"{'metric':<34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        rel = (q3 - q1) / med if med else 0.0
        print(f"{name:<34} {units[name]:>6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{min(v):>12.6g} {max(v):>12.6g} {rel:>8.4f}")
    print("failed/attempted per run: " + " ".join(shares))


def main():
    argv = sys.argv[1:]
    mode = argv[0] if argv and argv[0] in ("spread", "references") else "run"
    if mode != "run":
        argv = argv[1:]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, required=mode != "spread")
    if mode == "references":
        args = p.parse_args(argv)
        binary = build()
        sys.exit(subprocess.run([binary, "references", "--seed", str(args.seed)]).returncode)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    if mode == "spread":
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        args = p.parse_args(argv)
        spread(build(), args)
        return
    args = p.parse_args(argv)
    binary = build()
    code, out = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
