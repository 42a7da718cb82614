#!/usr/bin/env python3
"""Build and run the step benchmark from the root of a source checkout.

    python3 stepbench/run.py --workload dns32_serial --seed 1 --seconds 45 --trace 0

Configures and builds stepbench/ (and the repository's src/ libraries it
links) into .bench_build/cmake, runs one workload, and prints a line with
the provenance and the detail (every metric with its sample count, the
failures) followed, as the last line of stdout, by the result object
{"correct", "attempted", "failed", "metrics"}. Everything is read and
written under the current directory.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("dns32_serial", "dns32_2x2", "sweep16_evict")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"stepbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure once, then bring the binary up to date. Returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Written only by a configure that completed.
        if not (build_dir / "CMakeFiles" / "Makefile.cmake").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, cwd=root, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "stepbench", "-j", jobs],
                       cwd=root, check=True, stdout=sys.stderr)
    return build_dir / "stepbench"


def read_text(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cmake_cache(build_dir, key):
    text = read_text(build_dir / "CMakeCache.txt") or ""
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def source_digest(root):
    """SHA-256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for p in sorted((root / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def provenance(root, build_dir, args):
    cpu_model = None
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_root.glob("index*")):
        level, kind = read_text(idx / "level"), read_text(idx / "type")
        size = read_text(idx / "size")
        if level and kind and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    compiler_version = None
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=True).stdout
            compiler_version = out.splitlines()[0]
        except (OSError, subprocess.CalledProcessError, IndexError):
            pass
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "compiler": compiler_version,
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def expected_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    out_dir = root / ".bench_build"
    build_dir = out_dir / "cmake"
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(out_dir / "scratch" / str(os.getpid()))]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log(f"run failed with exit code {proc.returncode}")
        return 4
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    missing = expected_metrics(root, args.trace) - set(result["metrics"])
    if missing:
        log(f"metrics missing from the result: {sorted(missing)}")
        return 5

    print(json.dumps({"provenance": provenance(root, build_dir, args),
                      "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
