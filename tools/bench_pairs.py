"""Run the benchmark in alternating pairs of parent and change; write BENCH_<label>.json.

    python3 tools/bench_pairs.py --label traceio --parent HEAD --workdir /tmp/pairs

Each side runs from its own fresh clone under --workdir: the parent is the
revision --parent names; the change is this checkout's working tree (a clone
of HEAD with every path that differs from HEAD, staged or not, and every
untracked file that is not ignored copied over, and the deleted ones
removed). For every workload in BENCHMARK.json and each of the ten seeds from
1001, both sides run the benchmark's command once with `--trace 0`; odd seeds
run the parent first, even seeds the change. Runs get
PYTHONDONTWRITEBYTECODE=1 and no PYTHONPATH.

The record holds, per workload, the attempts and failures of each side and,
per end-to-end metric, each side's median, inclusive quartiles and every run,
the pairs the change wins (ties count for neither), whether that is a gain
(at least nine pairs in ten won and the medians further apart than the
parent's quartiles) and whether the change's median is within the metric's
bound of the parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1001, 1011)


def git(*args: str, cwd: Path | None = None) -> str:
    return subprocess.run(["git", *args], cwd=cwd or ROOT, check=True,
                          capture_output=True, text=True).stdout


def clone(rev: str, dest: Path) -> str:
    """A fresh clone of this repository at `rev`; returns the commit."""
    if dest.exists():
        shutil.rmtree(dest)
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(dest))
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    git("checkout", "--quiet", commit, cwd=dest)
    return commit


def clone_worktree(dest: Path) -> str:
    """A clone of HEAD carrying this checkout's uncommitted edits."""
    head = clone("HEAD", dest)
    changed = (git("diff", "--name-only", "--no-renames", "-z", "HEAD")
               + git("ls-files", "-z", "--others", "--exclude-standard"))
    for name in sorted(set(filter(None, changed.split("\0")))):
        src, dst = ROOT / name, dest / name
        if src.is_file():
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
        elif dst.is_file():
            dst.unlink()
    return f"working tree on {head}"


def run_once(side: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=side, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(args)} exited {done.returncode} in {side}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's record: summaries, every run, wins, gain and bound."""
    lower = spec["better"] == "lower"
    p, c = summary(parent), summary(change)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    gap = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    limit = p["median"] * (1 + spec["bound"] if lower else 1 - spec["bound"])
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c, "change_wins": wins,
        "gain": wins >= 9 and gap > p["iqr"],
        "within_bound": c["median"] <= limit if lower else c["median"] >= limit,
        "parent_runs": parent, "change_runs": change,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="where the two clones go; replaced if present")
    parser.add_argument("--claim", default="", help="what the change claims, for the record")
    args = parser.parse_args(argv)

    dirs = {"parent": args.workdir / "parent", "change": args.workdir / "change"}
    commits = {"parent": clone(args.parent, dirs["parent"]),
               "change": clone_worktree(dirs["change"])}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    record = {
        "label": args.label, "claim": args.claim,
        "parent": commits["parent"], "change": commits["change"],
        "command": " ".join(spec["command"]) + " --workload W --seed S "
                   f"--seconds {spec['run_seconds']} --trace 0",
        "pairing": "alternating: odd seeds run the parent first, even seeds the "
                   "change first; each side from its own fresh clone, "
                   "PYTHONDONTWRITEBYTECODE=1, PYTHONPATH unset",
        "host": f"{os.cpu_count()} CPUs, {sys.platform}, Python "
                f"{sys.version.split()[0]}; host times in the benchmark's reference seconds",
        "iqr": "q3 - q1 of the runs, inclusive quartiles; change_wins counts pairs "
               "where the change reads better; gain: wins in at least 9 pairs of 10 "
               "and a median gap above the parent's iqr",
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for seed in SEEDS:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(dirs[side], spec["command"], workload, seed,
                                           spec["run_seconds"]))
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps({k: v['value'] for k, v in runs[side][-1]['metrics'].items()})}",
                      file=sys.stderr, flush=True)
        entry = {"seeds": list(SEEDS)}
        for key in ("attempted", "failed"):
            entry[key] = {side: sum(r[key] for r in rs) for side, rs in runs.items()}
        entry["correct"] = {side: all(r["correct"] for r in rs) for side, rs in runs.items()}
        entry["metrics"] = {
            name: compare(metrics[name],
                          *[[r["metrics"][name]["value"] for r in runs[side]]
                            for side in ("parent", "change")])
            for name in metrics if all(name in r["metrics"] for rs in runs.values() for r in rs)
        }
        record["workloads"][workload] = entry
        out = ROOT / f"BENCH_{args.label}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
