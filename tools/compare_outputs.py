"""Compare the benchmark's CLI outputs of two source trees.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a checkout (or its `src` directory).  Every command of
`perfbench.workloads.CLI_RUNS`, and of `EXTRA_RUNS` (the table paths those
miss), runs once per tree as `python -m hdyson.cli` in a fresh temporary
directory.  For every file a run leaves, and for its
stdout, the script prints `same bytes`, or for a table the largest |delta|
of each numeric column that moved (in units of the parent value's ulp as
well), for a JSON manifest that of each numeric field.  The exit status is
0 when every output has the same bytes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import CLI_RUNS  # noqa: E402  (after the path entry)

# Table paths the benchmark's commands do not take: the other evolve modes,
# JSON tables, the single-particle comparison, a larger entropy table, the
# many-body entropy table, sigma -> 0 time averages, the one-time,
# one-shell and one-cut edges, the deepest spectrum (block sizes up to
# 2^62) as CSV and as JSON, and a collapse at large J, whose exponent fit
# runs on t in (0, 6/J].
EXTRA_RUNS = [
    ("evolve_finite", ["evolve", "--mode", "finite", "--out", "evolve_finite.csv"]),
    ("evolve_dense", ["evolve", "--mode", "dense", "--out", "evolve_dense.csv"]),
    ("evolve_json", ["evolve", "--format", "json", "--out", "evolve.json"]),
    ("manybody_compare", ["manybody", "--compare-single-particle", "--out", "manybody"]),
    ("entropy_n12", ["entropy", "--mode", "single", "--N", "12", "--tmax", "20", "--dt", "1",
                     "--out", "entropy_n12.csv"]),
    ("entropy_manybody", ["entropy", "--mode", "manybody", "--L", "8",
                          "--out", "entropy_manybody.csv"]),
    ("timeavg_sigma0", ["timeavg", "--sigma", "1e-7", "--out", "timeavg_sigma0.csv"]),
    ("evolve_tmax0", ["evolve", "--tmax", "0", "--out", "evolve_tmax0.csv"]),
    ("evolve_rmax0", ["evolve", "--rmax", "0", "--out", "evolve_rmax0.csv"]),
    ("entropy_n1", ["entropy", "--N", "1", "--out", "entropy_n1.csv"]),
    ("spectrum_n63", ["spectrum", "--N", "63", "--out", "spectrum_n63.csv"]),
    ("spectrum_n63_json", ["spectrum", "--N", "63", "--format", "json",
                           "--out", "spectrum_n63.json"]),
    ("collapse_large_J", ["collapse", "--J", "1e10", "--out", "collapse_large_J.csv"]),
]


def source_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    if (path / "src" / "hdyson").is_dir():
        return path / "src"
    if (path / "hdyson").is_dir():
        return path
    raise SystemExit(f"{tree}: neither it nor its src/ holds the hdyson package")


def run(src: Path, argv: list[str], cwd: Path) -> dict[str, bytes]:
    """Every file the command leaves in cwd, plus its exit code and stdout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "hdyson.cli", *argv], cwd=cwd, env=env,
                          capture_output=True)
    files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
    files["<exit code>"] = str(proc.returncode).encode()
    files["<stdout>"] = proc.stdout
    return files


def numeric_leaves(value, prefix: str = "") -> dict[str, float]:
    """Numeric fields of a parsed JSON value, keyed by their path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return {prefix or "<value>": float(value)}
    else:
        return {}
    out = {}
    for key, item in items:
        out.update(numeric_leaves(item, f"{prefix}.{key}" if prefix else str(key)))
    return out


def csv_columns(data: bytes) -> dict[str, list[float]] | None:
    lines = data.decode().splitlines()
    if not lines:
        return None
    header = lines[0].split(",")
    try:
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    except ValueError:
        return None
    if any(len(row) != len(header) for row in rows):
        return None
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def moved(old: dict[str, list[float]], new: dict[str, list[float]]) -> list[str]:
    """One line per key whose values differ: largest |delta|, in ulps too."""
    if old.keys() != new.keys() or any(len(old[k]) != len(new[k]) for k in old):
        return ["layout differs (keys or row counts)"]
    lines = []
    for key in old:
        worst = max(zip(old[key], new[key]), key=lambda pair: abs(pair[1] - pair[0]),
                    default=None)
        if worst is None or worst[0] == worst[1] or (math.isnan(worst[0]) and math.isnan(worst[1])):
            continue
        delta = abs(worst[1] - worst[0])
        lines.append(f"{key}: max |delta| {delta:.3g} ({delta / math.ulp(worst[0]):.3g} ulp "
                     f"of {worst[0]!r})")
    return lines


def compare(name: str, old: bytes | None, new: bytes | None) -> list[str]:
    if old == new:
        return ["same bytes"]
    if old is None or new is None:
        return ["only in the " + ("change" if old is None else "parent")]
    if name.endswith(".csv"):
        old_cols, new_cols = csv_columns(old), csv_columns(new)
        if old_cols is not None and new_cols is not None:
            return moved(old_cols, new_cols) or ["differs in text only"]
    if name.endswith(".json"):
        try:
            parsed = numeric_leaves(json.loads(old)), numeric_leaves(json.loads(new))
        except ValueError:
            parsed = None
        if parsed is not None:
            leaves = moved(*({k: [v] for k, v in p.items()} for p in parsed))
            return leaves or ["differs outside its numeric fields"]
    return ["differs"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    trees = [source_dir(tree) for tree in argv]
    same = True
    with tempfile.TemporaryDirectory() as scratch:
        for label, command in CLI_RUNS + EXTRA_RUNS:
            outputs = []
            for side, src in zip(("parent", "change"), trees):
                cwd = Path(scratch) / side / label
                cwd.mkdir(parents=True)
                outputs.append(run(src, command, cwd))
            print(f"{label}: hdyson {' '.join(command)}")
            for name in sorted(outputs[0].keys() | outputs[1].keys()):
                verdict = compare(name, outputs[0].get(name), outputs[1].get(name))
                same &= verdict == ["same bytes"]
                print(f"  {name}: " + "; ".join(verdict))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
