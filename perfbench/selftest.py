"""Self-test of the benchmark at toy size: ring-8 and grid 4x4.

    python3 perfbench/selftest.py

Run from the root of a checkout; it takes a few seconds.  It checks that
  * both modes print every metric of BENCHMARK.json by name with its
    unit, and end with a result line of exactly the keys correct,
    attempted, failed and metrics;
  * the toy outputs pass every check, including s_t frozen at 0.625
    (ring-8) and 0.4375 (grid 4x4);
  * a deliberately wrong reference digest fails every operation, which
    drives error_rate to 1;
  * without the program next to it the benchmark exits non-zero and
    prints no result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STATE = ".perfbench"
TOY = ["--workload", "toy", "--seed", "0", "--seconds", "1"]


def bench(args: list[str], cwd: str = ".") -> tuple[int, str]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def printed(out: str, name: str, unit: str) -> bool:
    return re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}(\s|$)", out, re.M) is not None


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []

    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        code, out = bench([*TOY, "--trace", trace])
        result = json.loads(out.splitlines()[-1]) if code == 0 else {}
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"trace {trace}: exit {code}, result keys {sorted(result)}")
            continue
        if not result["correct"] or result["failed"]:
            failures.append(f"trace {trace}: toy outputs failed their checks:\n{out}")
        listed = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != listed:
            failures.append(f"trace {trace}: metrics {got} != BENCHMARK.json {listed}")
        if trace == "0":
            listed.update({"simulate_s": "s", "pairs_per_s": "1/s", "error_rate": "ratio"})
        missing = [n for n, unit in listed.items() if not printed(out, n, unit)]
        if missing:
            failures.append(f"trace {trace}: not printed with their unit: {missing}")

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        toy = json.load(fh)["toy"]
    wrong = os.path.join(STATE, "wrong-reference.json")
    with open(wrong, "w", encoding="utf-8") as fh:
        json.dump({"toy": {k: "0" * 64 for k in toy}}, fh)
    code, out = bench([*TOY, "--trace", "0", "--reference", wrong])
    result = json.loads(out.splitlines()[-1]) if code == 0 else {}
    if not (result.get("failed") == result.get("attempted", -1) and printed(out, "error_rate", "ratio")
            and re.search(r"^error_rate = 1 ratio", out, re.M)):
        failures.append(f"a wrong reference did not drive error_rate to 1:\n{out}")

    bare = os.path.join(STATE, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", *TOY, "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for f in failures:
        print(f"FAIL {f}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
