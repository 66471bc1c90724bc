#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout configures and builds the library and the
benchmark from source (Release, the codegen of the release-bench preset)
under $CARGO_TARGET_DIR, default .bench_build, relative to the repository
root. Build output goes to stderr. The last line of stdout is the result
object printed by the benchmark binary; the line before it is the
environment block. Traced runs (--trace 1) write their Chrome trace,
per-session JSONL and summary under <build dir>/perfbench-traces/.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


_children = []


def _stop_children(signum, _frame):
    """Stops and reaps every child before exiting on SIGTERM or SIGINT."""
    for child in _children:
        if child.poll() is None:
            child.kill()
        child.wait()
    sys.exit(128 + signum)


def run_child(command, timeout=None, **kwargs):
    """Runs `command` to completion; returns (returncode, stdout)."""
    with subprocess.Popen(command, **kwargs) as child:
        _children.append(child)
        try:
            stdout, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            fail(f"{command[0]} exceeded {timeout} s")
        finally:
            _children.remove(child)
    return child.returncode, stdout


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """SHA-256 over the library and benchmark sources (paths and bytes)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", "4"])
    for step in steps:
        code, _ = run_child(step, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop_children)
    signal.signal(signal.SIGINT, _stop_children)

    binary = build() / "perfbench"
    traces = build_dir() / "perfbench-traces"
    traces.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id(),
               PERFBENCH_GIT_SHA=git_sha())
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(traces)]
    code, stdout = run_child(command, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, env=env, text=True)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
