"""Opt-in spans around the public functions of khbm's modules.

``Tracer.install`` wraps every function named in a layer module's
``__all__`` and puts the wrapper in place of the original under every
name that binds it in any ``khbm`` module, since callers bind names at
import (``from .norms import norm_eval_many``).  Each call records a
span -- name, start, end, parent -- plus a work count taken from the
argument shapes.  Spans live in flat arrays until ``summarize`` turns a
pass worth of them into per-layer metrics; a layer's self time is its
spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from statistics import median

import numpy as np

LAYERS = ("norms", "functional", "hanner", "combinatorics", "distributions", "constants", "banach_mazur",
          "acceptance", "cli")


def _arg(args: tuple, kwargs: dict, i: int, key: str):
    return args[i] if len(args) > i else kwargs[key]


def _n_rows(v) -> int:
    return len(getattr(v, "rows", v))


def _support_size(law) -> int:
    return 2 * len(law.atoms) + (1 if law.zero_mass > 0.0 or not law.atoms else 0)


# work counted per call, from the arguments alone
def _terms_exact(a, k):
    return float(_support_size(_arg(a, k, 1, "f")) ** _n_rows(_arg(a, k, 0, "v")))


def _terms_two_valued(a, k):
    return float((3 if _arg(a, k, 1, "t") < 0.5 else 2) ** _n_rows(_arg(a, k, 0, "v")))


def _samples(a, k):
    return float(_arg(a, k, 4, "samples"))


def _rows(a, k):
    spec, pts = _arg(a, k, 0, "spec"), np.shape(_arg(a, k, 1, "pts"))
    return float(math.prod(pts) // spec.dim)


def _sign_rows_gap(a, k):
    return float(2 ** _n_rows(_arg(a, k, 1, "vectors")))


def _sign_rows_search(a, k):
    # the whole search space; every search in these workloads runs to the end
    return float(_arg(a, k, 5, "trials") * 2 ** _arg(a, k, 2, "n"))


def _subsets(a, k):
    inp = _arg(a, k, 0, "inp")
    return float(math.comb(len(inp.x), inp.k))


def _criterion(a, k):
    return float(_arg(a, k, 0, "cid"))


_WORK = {
    "functional.ipf_exact": _terms_exact,
    "functional.ipf_two_valued_exact": _terms_two_valued,
    "functional.ipf_monte_carlo": _samples,
    "norms.norm_eval_many": _rows,
    "norms.norm_eval": lambda a, k: 1.0,
    "hanner.hanner_gap": _sign_rows_gap,
    "hanner.falsify_hanner": _sign_rows_search,
    "combinatorics.subset_power_ratio": _subsets,
    "acceptance.run_criterion": _criterion,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._layer: list[int] = []
        self._name, self._parent = array("i"), array("i")
        self._start, self._end, self._work = array("d"), array("d"), array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    def _id(self, name: str) -> int:
        self.names.append(name)
        self._layer.append(LAYERS.index(name.split(".")[0]))
        return len(self.names) - 1

    def _wrap(self, layer: str, attr: str, fn):
        full = f"{layer}.{attr}"
        work = _WORK.get(full)
        if full in ("norms.norm_eval_many", "norms.norm_eval"):
            # one name per norm kind, so LP gauge rows and l^r rows stay apart
            from khbm.norms import PolytopeGauge

            lp_id, gauge_id = self._id(f"{full}:lp"), self._id(f"{full}:gauge")

            def pick(a, k):
                return gauge_id if isinstance(_arg(a, k, 0, "spec"), PolytopeGauge) else lp_id
        else:
            nid = self._id(full)

            def pick(a, k):
                return nid

        names, parents, starts, ends, works = self._name, self._parent, self._start, self._end, self._work
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(pick(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            works.append(work(args, kwargs) if work else 0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                mod = sys.modules[f"khbm.{layer}"]
                for attr in mod.__all__:
                    fn = getattr(mod, attr)
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        self._wrappers[id(fn)] = (fn, self._wrap(layer, attr, fn))
        for name, mod in list(sys.modules.items()):
            if name != "khbm" and not name.startswith("khbm."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in self._patched:
            setattr(mod, attr, val)
        self._patched.clear()

    def reset(self) -> None:
        for arr in (self._name, self._parent, self._start, self._end, self._work):
            del arr[:]

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.intc),
            "parent": np.array(self._parent, dtype=np.intc),
            "start": np.array(self._start, dtype=float),
            "end": np.array(self._end, dtype=float),
            "work": np.array(self._work, dtype=float),
        }

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        s = self.spans()
        name, parent, work = s["name"], s["parent"], s["work"]
        dur = s["end"] - s["start"]
        layer_of = np.array(self._layer, dtype=np.intp)
        layer = layer_of[name]
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(name))
        self_by_layer = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        parent_layer = np.where(nested, layer[np.where(nested, parent, 0)], -1)
        entry = parent_layer != layer  # calls into a layer from outside it

        ids = {n: i for i, n in enumerate(self.names)}

        def sel(*full):
            return np.isin(name, [ids[f] for f in full])

        def rate(mask):
            t = float(dur[mask].sum())
            return float(work[mask].sum()) / t if t > 0 else 0.0

        def self_s(layer_name):
            return float(self_by_layer[LAYERS.index(layer_name)])

        def entries(layer_name):
            return entry & (layer == LAYERS.index(layer_name))

        lp = sel("norms.norm_eval_many:lp", "norms.norm_eval:lp")
        gauge = sel("norms.norm_eval_many:gauge", "norms.norm_eval:gauge")
        exact = sel("functional.ipf_exact", "functional.ipf_two_valued_exact")
        fn_entries = entries("functional")
        n_fn = int(fn_entries.sum())
        thm2 = sel("banach_mazur.theorem2_general_lower", "banach_mazur.theorem2_cotype_lower")
        objective = sel("constants.lower_constant") & nested & thm2[np.where(nested, parent, 0)]
        sandwich = dur[sel("banach_mazur.sandwich_report")]
        criterion = sel("acceptance.run_criterion")
        out = {
            "norms.lp_rows": float(work[lp].sum()),
            "norms.lp_rows_per_s": rate(lp),
            "norms.gauge_rows": float(work[gauge].sum()),
            "norms.gauge_rows_per_s": rate(gauge),
            "norms.comparison_calls": float(sel("norms.estimate_comparison").sum()),
            "norms.self_s": self_s("norms"),
            "functional.terms": float(work[exact].sum()),
            "functional.terms_per_s": rate(exact),
            "functional.mc_samples_per_s": rate(sel("functional.ipf_monte_carlo")),
            "functional.calls": float(n_fn),
            "functional.us_per_call": float(dur[fn_entries].sum()) / n_fn * 1e6 if n_fn else 0.0,
            "functional.self_s": self_s("functional"),
            "hanner.sign_rows_per_s": rate(sel("hanner.hanner_gap", "hanner.falsify_hanner")),
            "hanner.self_s": self_s("hanner"),
            "combinatorics.subsets_per_s": rate(sel("combinatorics.subset_power_ratio")),
            "combinatorics.self_s": self_s("combinatorics"),
            "distributions.self_s": self_s("distributions"),
            "constants.calls": float(entries("constants").sum()),
            "banach_mazur.objective_evals": float(objective.sum()),
            "banach_mazur.sandwich_ms": median(sandwich.tolist()) * 1e3 if sandwich.size else 0.0,
            "banach_mazur.self_s": self_s("banach_mazur"),
            "cli.self_s": self_s("cli"),
        }
        for k in range(1, 11):
            out[f"acceptance.criterion_{k}_s"] = float(dur[criterion & (work == k)].sum())
        return out

    def save(self, path) -> None:
        """Write the spans recorded since the last reset, with the name table."""
        np.savez(path, names=np.array(self.names), **self.spans())
