"""In-memory span recorder for the traced benchmark pass.

`install` rebinds the public entry points of `gapn` in every module that
binds them (the defining module, the modules that import them, and the
package namespace), so calls between modules are recorded at the layer
boundary without touching the program's files.  Spans stay in memory and
are written out once, after the pass.

Only the process that installed the recorder records.  Pool workers forked
during `run_search` call straight through, so their time appears only
inside the parent's `run_search` span.
"""

import functools
import gzip
import inspect
import json
import os
import time
from collections import Counter


class SpanRecorder:
    """Nested spans of one process: (name, parent index, start, end)."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, on_return=None):
        """`fn` recorded as a span; `name` is a string or a function of the
        call's arguments; `on_return(counters, result, *args)` counts work."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != rec.pid:
                return fn(*args, **kwargs)
            idx = rec.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if on_return is not None:
                on_return(rec.counters, result, *args, **kwargs)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration less the part its child spans cover."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[code[n], parent, round(start - t0, 9), round(end - t0, 9)]
                for n, parent, start, end in self.spans]
        doc = {
            "columns": ["name", "parent", "start_s", "end_s"],
            "names": names,
            "note": "pooled workers' time appears only inside the parent's run_search span",
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _count_is_gapn(counters, verdict, f, *args, **kwargs):
    ctx = f.field
    lines = len(verdict.per_direction) // (ctx.p - 1)
    counters["is_gapn.lines"] += lines
    counters["is_gapn.line_elems"] += lines * ctx.q
    if not verdict.is_gapn:
        counters["is_gapn.rejects"] += 1
        counters["is_gapn.reject_lines"] += lines


def _count_run_search(counters, result, *args, **kwargs):
    hits, summary = result
    counters["search.examined"] += summary.examined
    counters["search.checked"] += summary.checked
    counters["search.hits"] += len(hits)


def _claim_name(claim_id, *args, **kwargs):
    return f"search.claim:{claim_id}"


def install(rec: SpanRecorder, gapn_modules) -> list:
    """Wrap the traced entry points wherever `gapn_modules` bind them;
    returns the (owner, attribute, original) list that undoes it."""
    pkg, fields, polynomials, constructions, search, cli = gapn_modules
    targets = {
        fields.make_field: rec.wrap("fields.make_field", fields.make_field),
        polynomials.is_gapn: rec.wrap("polynomials.is_gapn", polynomials.is_gapn, _count_is_gapn),
        polynomials.derivative: rec.wrap("polynomials.derivative", polynomials.derivative),
        search.run_search: rec.wrap("search.run_search", search.run_search, _count_run_search),
        search.reproduce: rec.wrap(_claim_name, search.reproduce),
        cli.main: rec.wrap("cli.main", cli.main),
    }
    for attr, fn in vars(constructions).items():
        if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == constructions.__name__:
            targets[fn] = rec.wrap("constructions." + attr, fn)
    undo = []
    for mod in (pkg, fields, polynomials, constructions, search, cli):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in targets:
                undo.append((mod, attr, value))
                setattr(mod, attr, targets[value])
    sparse = polynomials.SparsePoly
    undo.append((sparse, "value_table", sparse.value_table))
    sparse.value_table = rec.wrap("polynomials.value_table", sparse.value_table)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def layer_metrics(rec: SpanRecorder, root: int, claim_ids) -> dict:
    """Per-layer figures of one traced pass whose root span is `root`."""
    own = rec.self_times()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for (name, _, start, end), mine in zip(rec.spans, own):
        calls[name] += 1
        self_s[name] += mine
        total_s[name] += end - start
    c = rec.counters

    def ratio(num, den):
        return num / den if den else 0.0

    cons_calls = sum(v for k, v in calls.items() if k.startswith("constructions."))
    cons_self = sum(v for k, v in self_s.items() if k.startswith("constructions."))
    claim_names = [f"search.claim:{cid}" for cid in claim_ids]
    search_self = self_s["search.run_search"] + sum(self_s[n] for n in claim_names)
    isg_self = self_s["polynomials.is_gapn"]
    out = {
        "fields.make_field_calls": calls["fields.make_field"],
        "fields.make_field_s": self_s["fields.make_field"],
        "polynomials.value_table_calls": calls["polynomials.value_table"],
        "polynomials.value_table_s": self_s["polynomials.value_table"],
        "polynomials.is_gapn_calls": calls["polynomials.is_gapn"],
        "polynomials.is_gapn_self_s": isg_self,
        "polynomials.lines_decided": c["is_gapn.lines"],
        "polynomials.ns_per_line_elem": ratio(isg_self * 1e9, c["is_gapn.line_elems"]),
        "polynomials.reject_ratio": ratio(c["is_gapn.rejects"], calls["polynomials.is_gapn"]),
        "polynomials.lines_per_reject": ratio(c["is_gapn.reject_lines"], c["is_gapn.rejects"]),
        "polynomials.derivative_calls": calls["polynomials.derivative"],
        "polynomials.derivative_s": self_s["polynomials.derivative"],
        "constructions.calls": cons_calls,
        "constructions.self_s": cons_self,
        "search.examined": c["search.examined"],
        "search.checked": c["search.checked"],
        "search.hits": c["search.hits"],
        "search.check_ratio": ratio(c["search.checked"], c["search.examined"]),
        "search.hit_ratio": ratio(c["search.hits"], c["search.checked"]),
        "search.run_search_s": total_s["search.run_search"],
        "search.self_s": search_self,
        "cli.main_calls": calls["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "bench.self_s": own[root],
        "trace.wall_s": rec.spans[root][3] - rec.spans[root][2],
    }
    for cid, name in zip(claim_ids, claim_names):
        out[f"search.claim_s.{cid}"] = total_s[name]
    return out


# self-time metrics that partition the traced pass's wall time
SELF_TIME_KEYS = (
    "fields.make_field_s",
    "polynomials.value_table_s",
    "polynomials.is_gapn_self_s",
    "polynomials.derivative_s",
    "constructions.self_s",
    "search.self_s",
    "cli.self_s",
    "bench.self_s",
)
