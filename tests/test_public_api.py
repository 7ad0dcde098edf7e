"""The public surface: every name a module exports resolves on it.

The benchmark's tracer wraps the functions named in each module's
``__all__`` by ``getattr``, so a stale entry left behind by a deletion
would break traced runs; the names it reads must stay exported.
"""

import importlib
import pkgutil

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
