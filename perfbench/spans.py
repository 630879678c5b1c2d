"""Span tracing of certbound's layers, installed from outside the package.

`Tracer.install` replaces the public functions and methods of each layer
by wrappers that record one span per call: its name, the span that caused
it, its thread, start and end, and counts computed from the call's inputs.
Every certbound module namespace that holds a wrapped function is patched,
so calls through `from .x import f` names are seen as well.  Calls made in
the sweep thread pool have no caller span in their own thread; they are
attached to the sweep span that started the pool.

Spans are kept in memory.  `layer_metrics` turns the spans of one pass into
the per-layer metrics, with each span's self time taken as its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# name -> unit of every per-layer metric `layer_metrics` returns
LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "rng.streams": "count",
    "qsim.iqp.calls": "count",
    "qsim.iqp.self_s": "s",
    "qsim.fwht.self_s": "s",
    "qsim.iqp_weights.self_s": "s",
    "qsim.haar.self_s": "s",
    "qsim.local_random.self_s": "s",
    "qsim.haar_unitary.calls": "count",
    "qsim.amplitudes": "count",
    "distvec.probvec.calls": "count",
    "distvec.probvec.self_s": "s",
    "distvec.entries": "count",
    "distvec.truncate.self_s": "s",
    "distvec.norm.self_s": "s",
    "distvec.io.self_s": "s",
    "distvec.io.bytes": "bytes",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "boson.distribution.calls": "count",
    "boson.distribution.self_s": "s",
    "boson.outcomes": "count",
    "boson.ryser_terms": "count",
    "boson.outcomes_per_s": "1/s",
    "moments.sweep.self_s": "s",
    "moments.instance.calls": "count",
    "moments.instance.busy_s": "s",
    "moments.parallel_ratio": "ratio",
    "certtest.build.calls": "count",
    "certtest.build.self_s": "s",
    "certtest.accept_rate.calls": "count",
    "certtest.accept_rate.self_s": "s",
    "certtest.test.self_s": "s",
    "certtest.draws": "count",
    "certtest.count_bytes": "bytes",
    "certtest.search.points": "count",
    "certtest.search.useful_ratio": "ratio",
}


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "attrs")

    def __init__(self, id_, parent, name, start):
        self.id, self.parent, self.name, self.start = id_, parent, name, start
        self.thread = threading.get_ident()
        self.end = start
        self.attrs = None

    def to_json(self) -> str:
        return json.dumps([self.id, self.parent, self.name, self.thread, self.start, self.end, self.attrs])


def _draws(trials: int, cfg, dim: int) -> dict:
    """Outcomes drawn, and bytes of the dense (trials x dim) count matrix, for `trials` sample sets."""
    return {"draws": trials * cfg.samples, "count_bytes": trials * dim * 8, "samples": cfg.samples}


def _io_bytes(result, a):
    return {"bytes": len(result) if isinstance(result, (str, bytes)) else len(a.get("text", a.get("blob", b"")))}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sweep = 0  # the sweep span whose pool threads are running

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counts=None, sweep=False):
        tracer = self
        sig = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(next(tracer._ids), stack[-1] if stack else tracer._sweep, name, time.perf_counter())
            stack.append(span.id)
            if sweep:
                outer, tracer._sweep = tracer._sweep, span.id
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if sweep:
                    tracer._sweep = outer
                tracer.spans.append(span)
            if counts:
                span.attrs = counts(result, sig.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function and method of the imported certbound package."""
        from certbound import boson, bounds, certtest, cli, distvec, moments, qsim, rng

        amplitudes = lambda r, a: {"amplitudes": r.dim}  # noqa: E731
        functions = [
            ("cli.main", cli.main, None),
            ("rng.stream", rng.stream_rng, None),
            ("qsim.iqp", qsim.iqp_output_distribution, amplitudes),
            ("qsim.fwht", qsim.fwht, None),
            ("qsim.haar", qsim.haar_state_distribution, amplitudes),
            ("qsim.local_random", qsim.local_random_circuit_distribution, amplitudes),
            ("qsim.haar_unitary", qsim.haar_unitary, None),
            ("boson.distribution", boson.boson_distribution,
             lambda r, a: {"outcomes": len(r[1]), "ryser_terms": len(r[1]) * (2 ** a["inst"].n - 1)}),
            ("certtest.search", certtest.empirical_sample_complexity, lambda r, a: {"result": r}),
        ]
        functions += [("distvec.truncate", f, None) for f in (distvec.truncate_tail, distvec.remove_max, distvec.truncated_core)]
        functions += [
            ("distvec.norm", f, None)
            for f in (distvec.lp_quasinorm, distvec.l1_distance, distvec.min_entropy, distvec.renyi_entropy)
        ]
        functions += [
            ("bounds", f, None)
            for f in (bounds.vv_lower_bound, bounds.vv_upper_bound, bounds.norm23_bounds, bounds.postselected_lower_bound,
                      bounds.smin_iqp, bounds.smin_design, bounds.smin_boson, bounds.smin_boson_full_space)
        ]
        functions += [
            ("moments.sweep", f, None)
            for f in (moments.estimate_second_moments, moments.min_entropy_tail_check, moments.anti_concentration_check)
        ]
        modules = [m for k, m in sys.modules.items() if k == "certbound" or k.startswith("certbound.")]
        for name, fn, counts in functions:
            wrapper = self.wrap(name, fn, counts, sweep=name == "moments.sweep")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

        methods = [
            (distvec.ProbVec, "__post_init__", "distvec.probvec", lambda r, a: {"entries": a["self"].dim}),
            (distvec.ProbVec, "to_json", "distvec.io", _io_bytes),
            (distvec.ProbVec, "to_bytes", "distvec.io", _io_bytes),
            (distvec.ProbVec, "from_json", "distvec.io", _io_bytes),
            (distvec.ProbVec, "from_bytes", "distvec.io", _io_bytes),
            (qsim.IqpWeights, "random", "qsim.iqp_weights", None),
            (qsim.CircuitEnsemble, "instance_distribution", "moments.instance", None),
            (boson.BosonEnsemble, "instance_distribution", "moments.instance", None),
            (certtest.CertificationTester, "__init__", "certtest.build",
             lambda r, a: _draws(a["cfg"].calibration_runs, a["cfg"], a["p"].dim)),
            (certtest.CertificationTester, "accept_rate", "certtest.accept_rate",
             lambda r, a: _draws(a["trials"], a["self"].cfg, a["self"].p.dim)),
            (certtest.CertificationTester, "test", "certtest.test", lambda r, a: _draws(1, a["self"].cfg, a["self"].p.dim)),
        ]
        for cls, attr, name, counts in methods:
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, counts)))
            else:
                setattr(cls, attr, self.wrap(name, raw, counts))
        return self

    def write(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(span.to_json() + "\n")


def _covered(span: Span, children: list) -> float:
    """Length of the part of span's interval that the union of its children covers."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics (see LAYER_UNITS) of the spans recorded in one pass."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    calls, dur, self_s, attrs = defaultdict(int), defaultdict(float), defaultdict(float), defaultdict(float)
    points = search_draws = useful_draws = 0
    for s in spans:
        d = s.end - s.start
        calls[s.name] += 1
        dur[s.name] += d
        self_s[s.name] += d - _covered(s, children[s.id])
        for k, v in (s.attrs or {}).items():
            attrs[f"{s.name}.{k}"] += v
        if s.name == "certtest.search":
            kids = [c for c in children[s.id] if c.name in ("certtest.build", "certtest.accept_rate")]
            points += sum(c.name == "certtest.build" for c in kids)
            search_draws += sum(c.attrs["draws"] for c in kids)
            useful_draws += sum(c.attrs["draws"] for c in kids if c.attrs["samples"] == s.attrs["result"])
    testers = ("certtest.build", "certtest.accept_rate", "certtest.test")
    m = {
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "rng.streams": calls["rng.stream"],
        "qsim.iqp.calls": calls["qsim.iqp"],
        "qsim.iqp.self_s": self_s["qsim.iqp"],
        "qsim.fwht.self_s": self_s["qsim.fwht"],
        "qsim.iqp_weights.self_s": self_s["qsim.iqp_weights"],
        "qsim.haar.self_s": self_s["qsim.haar"],
        "qsim.local_random.self_s": self_s["qsim.local_random"],
        "qsim.haar_unitary.calls": calls["qsim.haar_unitary"],
        "qsim.amplitudes": sum(attrs[f"qsim.{k}.amplitudes"] for k in ("iqp", "haar", "local_random")),
        "distvec.probvec.calls": calls["distvec.probvec"],
        "distvec.probvec.self_s": self_s["distvec.probvec"],
        "distvec.entries": attrs["distvec.probvec.entries"],
        "distvec.truncate.self_s": self_s["distvec.truncate"],
        "distvec.norm.self_s": self_s["distvec.norm"],
        "distvec.io.self_s": self_s["distvec.io"],
        "distvec.io.bytes": attrs["distvec.io.bytes"],
        "bounds.calls": calls["bounds"],
        "bounds.self_s": self_s["bounds"],
        "boson.distribution.calls": calls["boson.distribution"],
        "boson.distribution.self_s": self_s["boson.distribution"],
        "boson.outcomes": attrs["boson.distribution.outcomes"],
        "boson.ryser_terms": attrs["boson.distribution.ryser_terms"],
        "boson.outcomes_per_s": _ratio(attrs["boson.distribution.outcomes"], dur["boson.distribution"]),
        "moments.sweep.self_s": self_s["moments.sweep"],
        "moments.instance.calls": calls["moments.instance"],
        "moments.instance.busy_s": dur["moments.instance"],
        "moments.parallel_ratio": _ratio(dur["moments.instance"], dur["moments.sweep"]),
        "certtest.build.calls": calls["certtest.build"],
        "certtest.build.self_s": self_s["certtest.build"],
        "certtest.accept_rate.calls": calls["certtest.accept_rate"],
        "certtest.accept_rate.self_s": self_s["certtest.accept_rate"],
        "certtest.test.self_s": self_s["certtest.test"],
        "certtest.draws": sum(attrs[f"{t}.draws"] for t in testers),
        "certtest.count_bytes": sum(attrs[f"{t}.count_bytes"] for t in testers),
        "certtest.search.points": points,
        "certtest.search.useful_ratio": _ratio(useful_draws, search_draws),
    }
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
