"""The public surface: every name a module exports resolves on it.

The benchmark's tracer wraps the functions named in each module's
``__all__`` by ``getattr``, so a stale entry left behind by a deletion
would break traced runs; the names it reads must stay exported.  Its
work estimators read some arguments by position or name and some
attributes of them, so a renamed parameter or field would make a traced
run raise where an untraced one passes; those are pinned too.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import khbm

TRACER_READS = {
    "norms": ("norm_eval", "norm_eval_many", "estimate_comparison"),
    "functional": ("ipf_exact", "ipf_two_valued_exact", "ipf_monte_carlo"),
    "hanner": ("hanner_gap", "falsify_hanner"),
    "combinatorics": ("subset_power_ratio",),
    "constants": ("lower_constant",),
    "banach_mazur": ("theorem2_general_lower", "theorem2_cotype_lower", "sandwich_report"),
    "acceptance": ("run_criterion",),
}


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(khbm.__path__):
        mod = importlib.import_module(f"khbm.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (info.name, missing)


def test_tracer_read_names_stay_exported():
    for layer, names in TRACER_READS.items():
        exported = importlib.import_module(f"khbm.{layer}").__all__
        assert set(names) <= set(exported), layer


# (module, function, position, name) of every argument a tracer estimator reads
TRACER_ARGS = [
    ("functional", "ipf_exact", 0, "v"),
    ("functional", "ipf_exact", 1, "f"),
    ("functional", "ipf_two_valued_exact", 0, "v"),
    ("functional", "ipf_two_valued_exact", 1, "t"),
    ("functional", "ipf_monte_carlo", 4, "samples"),
    ("norms", "norm_eval_many", 0, "spec"),
    ("norms", "norm_eval_many", 1, "pts"),
    ("hanner", "hanner_gap", 0, "norm"),
    ("hanner", "hanner_gap", 1, "vectors"),
    ("hanner", "falsify_hanner", 2, "n"),
    ("hanner", "falsify_hanner", 5, "trials"),
    ("combinatorics", "subset_power_ratio", 0, "inp"),
    ("acceptance", "run_criterion", 0, "cid"),
]


@pytest.mark.parametrize("layer, name, position, param", TRACER_ARGS, ids=lambda x: str(x))
def test_tracer_read_arguments_keep_their_place(layer, name, position, param):
    params = list(inspect.signature(getattr(importlib.import_module(f"khbm.{layer}"), name)).parameters)
    assert params[position] == param, params


def test_no_public_function_takes_a_budget():
    # KHBM_BUDGET is the one budget source, so a report's budget is the one every route ran under
    takes = []
    for info in pkgutil.iter_modules(khbm.__path__):
        mod = importlib.import_module(f"khbm.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and "budget" in inspect.signature(obj).parameters:
                takes.append(f"{info.name}.{name}")
    assert takes == []


def test_tracer_read_attributes_stay():
    # the estimators count support points from a law, rows from a tuple, subsets from a ratio input
    law = khbm.SymmetricAtoms(((2.0, 0.125), (1.0, 0.25)))
    assert law.atoms == ((2.0, 0.125), (1.0, 0.25)) and law.zero_mass == 0.25
    assert khbm.VectorTuple(np.eye(3)).rows.shape == (3, 3)
    inp = khbm.SubsetRatioInput((1.0, 2.0, 3.0), 2, 1.5)
    assert inp.x == (1.0, 2.0, 3.0) and inp.k == 2
