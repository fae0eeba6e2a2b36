"""One benchmark pass in a fresh interpreter, so every pass starts cold.

    python3 bench/worker.py SPEC.json [--setup-only] [--trace] [--spans OUT.json.gz]

Set-up imports `gapn` from the checkout's `src` and builds every field the
inputs use; then the job list runs once, timed, and one JSON object with
the timings and the raw outputs goes to stdout.  The orchestrator
(`run.py`) judges the outputs; nothing here decides correctness.

From its first statement on, a speed probe times a fixed loop every 10 ms,
so each time can also be given in reference seconds: what it would have
been at the probe's reference speed (see README.md, "Reference seconds").
"""

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest
    # reaped descendant, so the sum bounds the combined peak from above
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


PROBE_PERIOD_S = 0.01
PROBE_LOOP = 300
PROBE_REF_S = 10e-6  # probe time at the reference speed


class SpeedProbe:
    """Times a fixed loop from a SIGALRM handler every PROBE_PERIOD_S.

    The mean of PROBE_REF_S / sample over an interval is the interval's
    speed relative to the reference; time spent preempted still counts in
    full, since a sample taken after a stall is not slowed by it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        t = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        for _ in range(20):  # so that even a very short interval has samples
            self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: int = 0, stop=None) -> float:
        """Reference seconds per second over samples[start:stop], or over
        the latest samples if that interval got none."""
        window = self.samples[start:stop] or self.samples[-20:]
        return sum(PROBE_REF_S / t for t in window) / len(window)


def _call_cli(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    with SpeedProbe() as probe:
        result = _run(args, probe)
    print(json.dumps(result))
    return 0


def _run(args, probe: SpeedProbe) -> dict:
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)

    sys.path.insert(0, spec["src"])
    import gapn
    from gapn import cli, constructions, fields, polynomials, search

    for p, n, modulus in spec["fields"]:
        gapn.make_field(p, n, modulus=modulus)
    setup_end = time.monotonic()
    setup_speed = probe.factor()
    if args.setup_only:
        return {"setup_end": setup_end, "setup_speed": setup_speed}

    workload = spec["workload"]
    rec = undo = None
    if args.trace:
        import spans  # the script's directory is first on sys.path

        rec = spans.SpanRecorder()
        undo = spans.install(rec, (gapn, fields, polynomials, constructions, search, cli))
    # bound after install, so a traced pass calls the wrapped entry points
    cli_main = cli.main
    run_search = search.run_search

    raw = []
    job_s = []
    job_ref_s = []
    first = len(probe.samples)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    root = rec.open("bench.pass") if rec else None
    for job in spec["jobs"]:
        mark = len(probe.samples)
        tj = time.perf_counter()
        if workload == "search-census":
            ctx = gapn.make_field(7, 2, modulus=job["modulus"])
            sjob = search.SearchJob(ctx, "binomial", degree_filter=frozenset(spec["degrees"]))
            raw.append(run_search(sjob, threads=1))
        else:
            raw.append(_call_cli(cli_main, job["argv"]))
        job_s.append(time.perf_counter() - tj)
        job_ref_s.append(job_s[-1] * probe.factor(mark, len(probe.samples)))
    if rec:
        rec.close(root)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    speed = probe.factor(first, len(probe.samples))

    from workloads import digest

    outputs = []
    for item in raw:
        if workload == "search-census":
            hits, summary = item
            outputs.append({
                "examined": summary.examined,
                "checked": summary.checked,
                "hits_by_degree": summary.to_json()["hits_by_degree"],
                "hits_digest": digest([h.to_json() for h in hits]),
            })
        elif workload == "reproduce-all":
            try:
                reports = json.loads(item["stdout"])
            except ValueError:
                reports = []
            outputs.append({
                "exit": item["exit"],
                "claims": [
                    {"claim": r["claim"], "passed": r["passed"], "details_digest": digest(r["details"])}
                    for r in reports
                ],
            })
        else:
            outputs.append(item)

    result = {
        "setup_end": setup_end,
        "setup_speed": setup_speed,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "speed": speed,
        "peak_rss_mb": _peak_rss_mb(),
        "job_s": job_s,
        "job_ref_s": job_ref_s,
        "outputs": outputs,
    }
    if rec:
        spans.uninstall(undo)
        result["layers"] = spans.layer_metrics(rec, root, search.claim_ids())
        if args.spans:
            rec.write(args.spans)
    return result


if __name__ == "__main__":
    raise SystemExit(main())
