"""Self-check of the benchmark at tiny size; it is not part of tier-1.

    python3 bench/selfcheck.py

For each workload it runs ``bench/run.py --size tiny`` once untraced and
twice traced, each in its own process, one after another, and checks that:

- every metric BENCHMARK.json names prints with its name and unit;
- the counts of the two traced runs are identical;
- traced and untraced runs give the same numeric results;
- fail_frac is 0, and no problem failed in any run;
- layer self times plus the benchmark's own time add up to the traced wall
  time.

It prints one line per finding and exits 1 if there is any.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _metric_findings(spec, result, key, label):
    out = []
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = result["metrics"]
    if set(got) != set(want):
        out.append(f"{label}: metrics {sorted(set(got) ^ set(want))} "
                   "missing or unexpected")
    for name, unit in want.items():
        m = got.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            out.append(f"{label}: {name} lacks a number or its unit {unit}")
    return out


def check_workload(spec, workload):
    findings = []
    plain_detail, plain = _run(workload, 0)
    traced = [_run(workload, 1) for _ in range(2)]
    findings += _metric_findings(spec, plain, "end_to_end", f"{workload}/0")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for i, (detail, result) in enumerate(traced):
        label = f"{workload}/1#{i}"
        findings += _metric_findings(spec, result, "per_layer", label)
        if result["metrics"]["fail_frac"]["value"] != 0:
            findings.append(f"{label}: fail_frac is not 0")
        acc = detail["trace_accounting"]
        if abs(acc["self_sum_s"] - acc["wall_s"]) > 1e-9 * max(1.0, acc["wall_s"]):
            findings.append(f"{label}: self times {acc['self_sum_s']} do not "
                            f"add up to the traced wall time {acc['wall_s']}")
        if detail["traced_problems"] != {
                k: v.get("results") for k, v in plain_detail["problems"].items()}:
            findings.append(f"{label}: traced results differ from untraced")
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if units.get(k) == "count"} for _, r in traced]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        findings.append(f"{workload}: counts differ between traced runs: {diff}")
    for label, result in [(f"{workload}/0", plain)] + [
            (f"{workload}/1#{i}", r) for i, (_, r) in enumerate(traced)]:
        if result["failed"] or not result["correct"]:
            findings.append(f"{label}: {result['failed']} of "
                            f"{result['attempted']} problems failed")
    return findings


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    findings = []
    for workload in [w["name"] for w in spec["workloads"]]:
        found = check_workload(spec, workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        findings += found
    for line in findings:
        print(line)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
