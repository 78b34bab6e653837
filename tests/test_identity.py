"""Identity record: the bench's tiny-size problem records at seed 1.

The ``problems`` record of

    python3 bench/run.py --workload <w> --seed 1 --seconds 0 --size tiny

for serrin, eigen and corner is committed under ``tests/identity/``.  The
test reruns the three commands and compares every value: integers,
booleans and strings exactly, floats at rtol 1e-9 and atol 1e-12 (some
values are rounding noise, such as the disk's trace_std of 5.7e-16).  On a
mismatch it lists each moved value with its old and new value and the
relative change.  A change that moves outputs on purpose quotes that list
and regenerates the records in the same commit with

    python3 tests/test_identity.py

The runs use a copy of ``bench/`` in a temporary directory, so the bench's
output directory lands there and not in the checkout.  They run with
``-W error``, as the tests' own warning filter does not reach a
subprocess.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = ROOT / "tests" / "identity"
WORKLOADS = ("serrin", "eigen", "corner")
RTOL, ATOL = 1e-9, 1e-12


def run_records(work_dir):
    """The three workloads' ``problems`` records, run side by side."""
    work_dir = pathlib.Path(work_dir)
    shutil.copytree(ROOT / "bench", work_dir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (work_dir / "src").symlink_to(ROOT / "src")
    procs = {w: subprocess.Popen(
        [sys.executable, "-B", "-W", "error",
         str(work_dir / "bench" / "run.py"),
         "--workload", w, "--seed", "1", "--seconds", "0", "--size", "tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for w in WORKLOADS}
    records = {}
    for w, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{w} bench run failed:\n{err}"
        records[w] = json.loads(out.splitlines()[-2])["problems"]
    return records


def moved_values(old, new, path=""):
    """One line per value of ``new`` that differs from ``old``."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in list(old) + [k for k in new if k not in old]:
            if key in old and key in new:
                lines += moved_values(old[key], new[key], f"{path}/{key}")
            else:
                lines.append(f"{path}/{key}: {old.get(key, '(absent)')!r} "
                             f"-> {new.get(key, '(absent)')!r}")
        return lines
    if isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        lines = []
        for i, (o, n) in enumerate(zip(old, new)):
            # a check is labelled by its name, other entries by position
            label = o.get("name", i) if isinstance(o, dict) else i
            lines += moved_values(o, n, f"{path}[{label}]")
        return lines
    if type(old) is float and type(new) is float:
        if abs(new - old) <= ATOL + RTOL * abs(old) \
                or (math.isnan(old) and math.isnan(new)):
            return []
        rel = (new - old) / abs(old) if old else math.inf
        return [f"{path}: {old!r} -> {new!r} ({rel:+.2e} relative)"]
    if type(old) is not type(new) or old != new:
        return [f"{path}: {old!r} -> {new!r}"]
    return []


def test_problem_records_unchanged(tmp_path):
    records = run_records(tmp_path)
    moved = []
    for w in WORKLOADS:
        with open(RECORDS / f"{w}.json") as fh:
            moved += moved_values(json.load(fh), records[w], w)
    assert not moved, "moved values (old -> new):\n" + "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = run_records(tmp)
    RECORDS.mkdir(exist_ok=True)
    for w, record in fresh.items():
        with open(RECORDS / f"{w}.json", "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"wrote {RECORDS / f'{w}.json'}")
