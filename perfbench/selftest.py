"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload the command accepts (those named in ``BENCHMARK.json``
and ``serve``) at toy size, untraced and traced, and checks that:

* the last output line is a JSON object with exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, the output checks passed and
  no operation failed;
* the untraced run emits exactly the ``end_to_end`` metrics and the traced
  run exactly the ``per_layer`` metrics, each with its unit;
* the command fails without printing a result in a directory that holds
  only ``BENCHMARK.json`` and the benchmark's own files.

Exits 1 after reporting every failure, 0 when all checks hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sibling module; importing it sets sys.dont_write_bytecode

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_command(command: list[str], cwd: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [*command, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=600,
    )


def check_run(command: list[str], workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    label = f"{workload} --trace {trace}"
    done = run_command(command, ROOT, [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "toy",
    ])
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{label}: last line is not JSON"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(
            f"{label}: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {entry.get('unit')!r}, want {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} value {entry.get('value')!r}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without the library sources the command must fail and print no result."""
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, bare / path,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        workload = spec["workloads"][0]["name"]
        done = run_command(spec["command"], bare, [
            "--workload", workload, "--seed", "1",
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ])
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0:
        return ["bare directory: command exited 0"]
    if '"correct"' in done.stdout:
        return ["bare directory: command printed a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = check_bare_directory(spec)
    unknown = {w["name"] for w in spec["workloads"]} - set(run.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names workloads the command rejects: {sorted(unknown)}")
    for workload in run.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            found = check_run(spec["command"], workload, trace, expected)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems.extend(found)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"{len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
