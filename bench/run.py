"""gapn benchmark: exact, seeded workloads timed end to end, plus one traced
pass that splits the time across the package's modules.

    python3 bench/run.py --workload verify-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass runs the workload's whole job
list in a fresh interpreter (`worker.py`), so no field or value-table cache
carries over between passes, as for a CLI user.  Every output is checked
against pinned expectations; a wrong output or exit code counts as failed.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the per-layer ones of the traced passes.  Times there are in
reference seconds (README.md).  The line before it records the environment,
the raw seconds and the workload-specific figures.  Mismatches are printed,
one line each, before both.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from spans import SELF_TIME_KEYS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 7  # set-up-only interpreters per run, besides one per pass
PASS_TIMEOUT_S = 150
STOP_AFTER_S = 150  # start no pass that would end later than this

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("cpu_ref_s", "s"),
    ("peak_rss_mb", "MB"),
    ("slowest_job_ref_s", "s"),
)
CLAIM_IDS = tuple(workloads.REPRODUCE_DETAIL_DIGESTS)
PER_LAYER = (
    ("fields.make_field_calls", "count"),
    ("fields.make_field_s", "s"),
    ("polynomials.value_table_calls", "count"),
    ("polynomials.value_table_s", "s"),
    ("polynomials.is_gapn_calls", "count"),
    ("polynomials.is_gapn_self_s", "s"),
    ("polynomials.lines_decided", "count"),
    ("polynomials.ns_per_line_elem", "ns"),
    ("polynomials.reject_ratio", "ratio"),
    ("polynomials.lines_per_reject", "count"),
    ("polynomials.derivative_calls", "count"),
    ("polynomials.derivative_s", "s"),
    ("constructions.calls", "count"),
    ("constructions.self_s", "s"),
    ("search.examined", "count"),
    ("search.checked", "count"),
    ("search.hits", "count"),
    ("search.check_ratio", "ratio"),
    ("search.hit_ratio", "ratio"),
    ("search.run_search_s", "s"),
    ("search.self_s", "s"),
    *((f"search.claim_s.{cid}", "s") for cid in CLAIM_IDS),
    ("cli.main_calls", "count"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)


def _jobs(workload: str, seed: int, workdir: Path) -> list:
    if workload == "verify-wide":
        jobs = []
        for name, obj in workloads.verify_functions(seed):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            jobs.append({"name": name, "argv": ["verify", str(path)]})
        return jobs
    if workload == "search-census":
        return [
            {"name": "mod-" + "-".join(map(str, m)), "modulus": list(m)}
            for m in workloads.census_moduli(seed)
        ]
    return [{"name": "claim-all", "argv": workloads.REPRODUCE_ARGV}]


def _spawn(spec_path: Path, *flags: str, timeout: float):
    """Run the worker; returns (spawn time, parsed result or None, error)."""
    t_spawn = time.monotonic()
    # its own session, so a timeout also kills the pool workers it forked
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(spec_path), *flags],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return t_spawn, None, f"worker exceeded {timeout} s"
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return t_spawn, None, f"worker exit {proc.returncode}: {tail}"
    try:
        return t_spawn, json.loads(lines[-1]), None
    except ValueError:
        return t_spawn, None, "worker printed no result"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _env() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        jobs = _jobs(workload, seed, workdir)
        spec = {
            "workload": workload,
            "src": str(ROOT / "src"),
            "fields": workloads.fields_for(workload, seed),
            "degrees": list(workloads.CENSUS_DEGREES),
            "jobs": jobs,
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        setup = []
        problems = []
        for _ in range(SETUP_SAMPLES):
            t_spawn, res, err = _spawn(spec_path, "--setup-only", timeout=60)
            if err:
                problems.append(f"setup: {err}")
            else:
                setup.append((res["setup_end"] - t_spawn, res["setup_speed"]))

        plain, traced = [], []
        attempted = failed = 0
        spans_path = None
        t0 = time.monotonic()
        last = 0.0
        while True:
            now = time.monotonic()
            if plain and (traced or not trace):
                # stop at the pass boundary nearest to `seconds`
                if now - t0 + last / 2 >= seconds or now - started + last > STOP_AFTER_S:
                    break
            tracing = trace and plain and now - t0 >= seconds / 2
            flags = []
            if tracing:
                flags.append("--trace")
                if spans_path is None:
                    spans_path = ROOT / ".bench_out" / f"spans-{workload}.json.gz"
                    spans_path.parent.mkdir(exist_ok=True)
                    flags += ["--spans", str(spans_path)]
            t_spawn, res, err = _spawn(spec_path, *flags, timeout=PASS_TIMEOUT_S)
            last = time.monotonic() - t_spawn
            attempted += len(jobs)
            if err:
                failed += len(jobs)
                problems.append(f"pass: {err}")
                break
            setup.append((res["setup_end"] - t_spawn, res["setup_speed"]))
            (traced if tracing else plain).append(res)
            for job, output in zip(jobs, res["outputs"]):
                bad = workloads.check(workload, job, output)
                if bad:
                    failed += 1
                    for msg in bad:
                        problems.append(f"{job['name']}: {msg}")
    return {
        "setup": setup, "plain": plain, "traced": traced, "jobs": jobs,
        "attempted": attempted, "failed": failed, "problems": problems,
        "spans_path": spans_path,
    }


def _end_to_end(r: dict) -> dict:
    """Medians over the untraced passes, in reference seconds where timed
    by the speed probe, plus the raw seconds behind them."""
    plain = r["plain"]
    return {
        "setup_s": _median([t * speed for t, speed in r["setup"]]),
        "setup_raw_s": _median([t for t, _ in r["setup"]]),
        "wall_ref_s": _median([p["wall_s"] * p["speed"] for p in plain]),
        "cpu_ref_s": _median([p["cpu_s"] * p["speed"] for p in plain]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        "slowest_job_ref_s": _median([max(p["job_ref_s"]) for p in plain]),
        "wall_s": _median([p["wall_s"] for p in plain]),
        "cpu_s": _median([p["cpu_s"] for p in plain]),
        "slowest_job_s": _median([max(p["job_s"]) for p in plain]),
        "speed": _median([p["speed"] for p in plain]),
    }


def _per_layer(r: dict, problems: list) -> dict:
    """Medians over the traced passes; times in reference seconds."""
    traced = r["traced"]
    for t in traced:
        layers = t["layers"]
        gap = sum(layers[k] for k in SELF_TIME_KEYS) - layers["trace.wall_s"]
        if abs(gap) > 1e-6 * max(1.0, layers["trace.wall_s"]):
            problems.append(f"trace: self times miss the traced wall time by {gap:.3g} s")
    out = {}
    for name, unit in PER_LAYER:
        vals = [t["layers"][name] * (t["speed"] if unit in ("s", "ns") else 1)
                for t in traced if name in t["layers"]]
        out[name] = _median(vals)
    plain_wall = _median([p["wall_s"] * p["speed"] for p in r["plain"]])
    traced_wall = _median([t["wall_s"] * t["speed"] for t in traced])
    out["trace_overhead_ratio"] = traced_wall / plain_wall - 1 if plain_wall and traced else 0.0
    return out


def _workload_figures(workload: str, r: dict, e2e: dict) -> dict:
    """Figures that exist for one workload only, so they are not metrics of
    the result line: every metric there is reported for every workload."""
    wall = e2e["wall_s"]
    out = {k: e2e[k] for k in ("setup_raw_s", "wall_s", "cpu_s", "slowest_job_s", "speed")}
    out["fail_ratio"] = r["failed"] / r["attempted"] if r["attempted"] else 0.0
    names = [j["name"] for j in r["jobs"]]
    if workload == "verify-wide" and wall:
        out["lines_decided_per_s"] = workloads.lines_per_pass() / wall
        for name in ("gf3-7", "gf211-2"):
            i = names.index(name)
            out[f"verify_s.{name}"] = _median([p["job_s"][i] for p in r["plain"]])
    elif workload == "search-census" and wall:
        out["candidates_per_s"] = workloads.CENSUS_EXAMINED * len(names) / wall
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gapn" / "__init__.py").is_file():
        print(f"error: no gapn package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    r = run(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = r["problems"]
    e2e = _end_to_end(r)
    metrics = _per_layer(r, problems) if args.trace else e2e
    units = dict(PER_LAYER if args.trace else END_TO_END)

    for msg in problems:
        print(f"MISMATCH {args.workload}: {msg}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": _env(),
        "passes": len(r["plain"]),
        "traced_passes": len(r["traced"]),
        "setup_samples": len(r["setup"]),
        "jobs": [j["name"] for j in r["jobs"]],
        "figures": _workload_figures(args.workload, r, e2e),
    }
    if args.trace:
        detail["spans_file"] = str(r["spans_path"].relative_to(ROOT)) if r["spans_path"] else None
        detail["note"] = "pooled workers' time appears only inside the parent's run_search span"
    print(json.dumps(detail))
    result = {
        "correct": r["failed"] == 0 and not problems and bool(r["plain"]),
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
