#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <synth-search|dblp-dedup> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build` in the current directory).
The build is refused if its feature graph enables `strict-checks`, and the
run is refused if any `TREESIM_TRACE_*` variable is set. The last line of
standard output is the binary's JSON result. A traced run also writes its
spans to `perfbench/out/spans-<workload>-<seed>.jsonl`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def host_notes(env):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(
        ["rustc", "--version"], capture_output=True, text=True, env=env
    ).stdout.strip()
    return f"# host nproc={os.cpu_count()} cpu={cpu!r} rustc={rustc!r}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    knobs = sorted(name for name in os.environ if name.startswith("TREESIM_TRACE_"))
    if knobs:
        return fail(f"refusing to run with {', '.join(knobs)} set")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.exists(MANIFEST):
        return fail(f"missing {MANIFEST}")

    features = subprocess.run(
        ["cargo", "tree", "--offline", "-e", "features", "--manifest-path", MANIFEST],
        capture_output=True,
        text=True,
        env=env,
    )
    if features.returncode != 0:
        sys.stderr.write(features.stderr)
        return fail("cannot resolve the benchmark's dependency graph")
    if "strict-checks" in features.stdout:
        return fail("the feature graph enables strict-checks; refusing to time it")

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return fail("build failed")

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        spans = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
        command += ["--spans", spans]

    print(host_notes(env), flush=True)
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
