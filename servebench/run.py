#!/usr/bin/env python3
"""Build and run the serving benchmark for one workload.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
selnet library and the `servebench` binary under $CARGO_TARGET_DIR
(default `.bench_build`); later runs rebuild only what changed. The binary's
report goes to stdout; the last line is the result JSON, holding the
end-to-end metrics of BENCHMARK.json (untraced run) or its per-layer metrics
(traced run). A run the binary does not finish (a signal, or a hang past
RUN_TIMEOUT_S) is reported as failed and is not retried.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 150


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "servebench",
                    "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "servebench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def failed_result(reason):
    log(reason)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("the selnet sources (CMakeLists.txt, src/) are not beside "
            "servebench/; run from a full checkout")
        return 1
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "servebench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--artifact-dir", os.path.join(HERE, "artifact"),
           "--commit", source_id()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        sys.stdout.write(out)
        return failed_result(f"servebench hung: killed after {RUN_TIMEOUT_S} "
                             "s (run not retried)")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode < 0:
        sys.stdout.write(out)
        name = signal.Signals(-proc.returncode).name
        return failed_result(f"servebench died by signal {name} "
                             "(run not retried)")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        log(f"servebench exited with code {proc.returncode}")
        return 1

    result = json.loads(lines[-1])
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}")
            return 1
        metrics[m["name"]] = got
    print("\n".join(lines[:-1]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
