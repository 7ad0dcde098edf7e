import gc
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from khbm import functional, hanner, norms
from khbm import tolerances as tol
from khbm.functional import EnumerationBudgetError
from khbm.hanner import falsify_hanner, hanner_gap, hlawka_check
from khbm.norms import LpNorm, PolytopeGauge, _sign_matrix, describe_norm, norm_eval, norm_eval_many


def full_sign_sums(norm, vectors, q):
    """Oracle over all 2^n sign patterns (the module only walks half)."""
    n = len(vectors)
    lhs = []
    rhs = []
    norms = [norm_eval(norm, v) for v in vectors]
    for signs in itertools.product((1.0, -1.0), repeat=n):
        vec = [math.fsum(s * v[j] for s, v in zip(signs, vectors)) for j in range(len(vectors[0]))]
        lhs.append(norm_eval(norm, vec) ** q)
        rhs.append(abs(math.fsum(s * m for s, m in zip(signs, norms))) ** q)
    return math.fsum(lhs), math.fsum(rhs)


def test_planar_absolute_sum_worked_example():
    rep = hanner_gap(LpNorm(1.0, 2), np.eye(2), 1.0)
    assert rep.lhs == 8.0
    assert rep.rhs == 4.0
    assert rep.gap == 4.0
    assert rep.verdict == "cotype-consistent"
    typed = hanner_gap(LpNorm(1.0, 2), np.eye(2), 1.0, mode="type")
    assert typed.verdict == "violated-type"


def test_half_enumeration_matches_full():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        q = float(rng.uniform(1.0, 4.0))
        norm = LpNorm(float(rng.choice([1.0, 2.0, 3.0, math.inf])), d)
        v = rng.standard_normal((n, d))
        rep = hanner_gap(norm, v, q)
        lhs, rhs = full_sign_sums(norm, v.tolist(), q)
        assert abs(rep.lhs - lhs) <= 1e-12 * lhs
        assert abs(rep.rhs - rhs) <= 1e-12 * max(rhs, 1e-300)


def test_euclidean_q2_gap_vanishes():
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = rng.standard_normal((int(rng.integers(2, 6)), 3))
        rep = hanner_gap(LpNorm(2.0, 3), v, 2.0)
        assert abs(rep.gap) <= 1e-12 * rep.lhs


def test_verdict_modes():
    rep = hanner_gap(LpNorm(2.0, 2), np.eye(2), 2.0, mode="cotype")
    assert rep.verdict == "cotype-consistent"
    with pytest.raises(ValueError):
        hanner_gap(LpNorm(2.0, 2), np.eye(2), 2.0, mode="typo")


def test_falsifier_finds_planar_type_violation():
    hit = falsify_hanner(LpNorm(1.0, 2), q=1.0, n=2, d=2, mode="type", trials=200, seed=0)
    assert hit is not None
    assert hit.violation > 0
    # witness normalized to unit frobenius norm
    assert abs(np.linalg.norm(hit.witness.rows) - 1.0) < 1e-12
    # the reported tuple really violates the type inequality
    rep = hanner_gap(LpNorm(1.0, 2), hit.witness.rows, 1.0, mode="type")
    assert rep.verdict == "violated-type"


def test_falsifier_deterministic():
    a = falsify_hanner(LpNorm(1.0, 2), q=1.0, n=2, d=2, mode="type", trials=100, seed=5)
    b = falsify_hanner(LpNorm(1.0, 2), q=1.0, n=2, d=2, mode="type", trials=100, seed=5)
    assert a is not None and b is not None
    assert a.trial_index == b.trial_index
    assert np.array_equal(a.witness.rows, b.witness.rows)


def test_falsifier_pinned_witness():
    # the first violation lies in the first batch (4,096 trials at n = 3);
    # the search stays on one lane, under the gate
    hit = falsify_hanner(LpNorm(3.0, 2), q=1.2, n=3, d=2, mode="cotype", trials=3000, seed=11)
    assert hit is not None
    assert hit.trial_index == 550
    assert hit.violation == 0.0008497441624239789
    assert hit.gap == -0.023728629784557143
    # the exact sign sums of the normalized witness violate cotype by the same relative amount
    rep = hanner_gap(LpNorm(3.0, 2), hit.witness.rows, 1.2)
    assert rep.gap < 0.0 and tol.close(-rep.gap / max(rep.lhs, rep.rhs), hit.violation)
    want = [
        ["-0x1.4495d6fa8a4bfp-4", "0x1.9842b5447fe5bp-3"],
        ["-0x1.eeaf4b3d4a99ep-1", "0x1.ea678f170e55bp-6"],
        ["-0x1.1e4a75e9f6276p-3", "-0x1.951f0a0d6fc23p-8"],
    ]
    assert hit.witness.rows.tolist() == [[float.fromhex(x) for x in row] for row in want]


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_falsifier_sign_sums_match_einsum(monkeypatch, n, d):
    # the stacked product signs @ batch, against an in-test einsum over the
    # same batches: bitwise for d >= 2; at d = 1 numpy takes a matrix-vector
    # path that sums in another order, so the two agree within the
    # recursive-summation bound (n - 1) eps sum_i |x_i|.  At n = 12 the
    # batches run on two lanes, so each batch's sums are keyed by its start
    sums, batch = {}, threading.local()
    real_scan = hanner._scan

    def scan_spy(signs, draws, norm, q, mode, start):
        batch.start = start
        return real_scan(signs, draws, norm, q, mode, start)

    def spy(norm, pts):
        if pts.ndim == 3:
            sums[batch.start] = pts
        return norm_eval_many(norm, pts)

    monkeypatch.setattr(hanner, "_scan", scan_spy)
    monkeypatch.setattr(hanner, "norm_eval_many", spy)
    trials = 300  # one batch up to n = 7; at n = 8 and 12, batches of 2^14 sign rows and a shorter tail
    assert falsify_hanner(LpNorm(2.0, d), q=2.0, n=n, d=d, mode="type", trials=trials, seed=n + d) is None
    rng = np.random.default_rng(n + d)
    signs = np.hstack([np.ones((1 << (n - 1), 1)), _sign_matrix(n - 1)])  # eps_1 = +1, built apart
    for start in sorted(sums):
        got = sums[start]
        batch = rng.standard_normal((got.shape[0], n, d))
        want = np.einsum("pn,bnd->bpd", signs, batch)
        if d >= 2:
            assert got.tobytes() == want.tobytes()
        else:
            bound = (n - 1) * np.finfo(float).eps * np.abs(batch).sum(axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= bound)
    assert sum(len(got) for got in sums.values()) == trials


# a violation first at trial 28,870 of 80,000 (the eighth of 20 batches), and a
# trial whose sign sums leave the double range first at trial 64,425 of 200,000
# (the eighth of 24); both searches cross the gate and run on the lanes
_LATE_HIT = dict(norm=LpNorm(3.0, 2), q=1.1, n=3, d=2, mode="cotype", trials=80_000, seed=0)
_LATE_OVERFLOW = dict(norm=LpNorm(2.0, 2), q=345.0, n=2, d=2, mode="type", trials=200_000, seed=0)


def _lane_counts(monkeypatch):
    lanes = []
    real_map = hanner._map

    def spy(fn, blocks, n_lanes):
        lanes.append(n_lanes)
        return real_map(fn, blocks, n_lanes)

    monkeypatch.setattr(hanner, "_map", spy)
    return lanes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_falsifier_first_hit_does_not_depend_on_lanes(monkeypatch, workers):
    lanes = _lane_counts(monkeypatch)
    monkeypatch.setattr(functional, "_WORKERS", workers)
    hit = falsify_hanner(**_LATE_HIT)
    assert (hit.trial_index, hit.violation, hit.gap) == (28_870, 5.398111156735175e-05, -0.000984697153604941)
    monkeypatch.setattr(functional, "_WORKERS", 1)
    assert hit.witness.rows.tobytes() == falsify_hanner(**_LATE_HIT).witness.rows.tobytes()
    monkeypatch.setattr(functional, "_WORKERS", workers)
    with pytest.raises(ValueError, match=r"^the sign sums at q = 345\.0 leave the double range$"):
        falsify_hanner(**_LATE_OVERFLOW)
    assert lanes == [workers, 1, workers]


def test_falsifier_stops_starting_batches_after_a_hit(monkeypatch):
    # the planar l^1 type violation comes at trial 0 of 200,000 (25 batches): batch 0 holds it.
    # No batch is drawn once the hit is known, and batch 0 is taken first, so unless its lane
    # stalls for a whole batch, each extra lane starts one batch at most before the hit is known
    starts = []
    real_scan = hanner._scan

    def scan_spy(signs, draws, norm, q, mode, start):
        starts.append(start)
        return real_scan(signs, draws, norm, q, mode, start)

    lanes = _lane_counts(monkeypatch)
    monkeypatch.setattr(hanner, "_scan", scan_spy)
    monkeypatch.setattr(functional, "_WORKERS", 3)
    hit = falsify_hanner(LpNorm(1.0, 2), q=1.0, n=2, d=2, mode="type", trials=200_000, seed=0)
    assert hit.trial_index == 0 and lanes == [3]
    assert 0 in starts and len(starts) <= 3


_HEXAGON = PolytopeGauge(np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 1.0], [-0.5, -1.0], [0.5, -1.0], [-0.5, 1.0]]))


@pytest.mark.parametrize("norm", [LpNorm(2.0, 3), LpNorm(3.0, 3), _HEXAGON], ids=describe_norm)
@pytest.mark.parametrize("n", [4, 10, 16])
def test_falsifier_memory_stays_within_its_count(monkeypatch, n, norm):
    # the count holds the sign table as built (at n = 16 past the cache, so built in the call)
    # and the draws, the norm's temporaries and the powered sides
    # of the largest batch, per batch in flight; at n = 10 and 16 the search crosses the gate and takes two lanes
    counts = []
    monkeypatch.setattr(hanner, "_check_floats", lambda floats, budget, what: counts.append(floats))
    monkeypatch.setattr(functional, "_WORKERS", 2)
    lanes = _lane_counts(monkeypatch)

    def search():
        return falsify_hanner(norm, q=3.0, n=n, d=norm.dim, mode="type", trials=4000 if n < 16 else 40, seed=n)

    search()  # numpy's caches come first, but no sign table: a first call must stay within its count too
    counts.clear()
    lanes.clear()
    norms._cached_signs.cache_clear()
    tracemalloc.start()
    try:
        search()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = norms._sign_floats(n, True)
    assert lanes == [1 if n == 4 else 2]
    assert peak <= 8 * (table + lanes[0] * (counts[0] - table))


def test_falsifier_holds_no_sign_table_after_its_call():
    # a table past 2^14 rows is the call's alone: at n = 16 the 2^15 x 16 half table (4.2 MB) is freed with it
    falsify_hanner(LpNorm(2.0, 3), q=2.0, n=2, d=3, mode="type", trials=3, seed=0)  # numpy's caches come first
    norms._cached_signs.cache_clear()
    tracemalloc.start()
    try:
        falsify_hanner(LpNorm(2.0, 3), q=2.0, n=16, d=3, mode="type", trials=3, seed=0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


def test_falsifier_memory_is_per_batch():
    # 200,000 trials of 4 x 4 draws are 25.6 MB if drawn at once
    tracemalloc.start()
    try:
        hit = falsify_hanner(LpNorm(2.0, 4), q=2.0, n=4, d=4, mode="type", trials=200_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hit is None
    assert peak < 4_000_000


@pytest.mark.parametrize(("n", "trials"), [(2, 8193), (3, 4097), (5, 1), (16, 5)])
def test_falsifier_batches_count_sign_rows(monkeypatch, n, trials):
    # batches hold about 2^14 sign-sum rows, whatever n; a one-trial tail joins
    # the batch before it, since a one-row product takes BLAS's matrix-vector path
    batches = []

    def spy(norm, pts):
        if pts.ndim == 3:
            batches.append(pts.shape[0])
        return norm_eval_many(norm, pts)

    monkeypatch.setattr(hanner, "norm_eval_many", spy)
    assert falsify_hanner(LpNorm(2.0, 2), q=2.0, n=n, d=2, mode="type", trials=trials, seed=n) is None
    per = max(2, hanner._ROWS >> (n - 1))
    assert sum(batches) == trials
    assert all(b == per for b in batches[:-1]) and batches[-1] <= per + 1
    assert trials == 1 or min(batches) >= 2


def test_falsifier_budget_counts_sign_table_and_batch(monkeypatch):
    # at n = 20: the 2^19 x 20 sign table as built (41 values a row with its indices and their int64 bits),
    # and three trials (two and the one-trial tail) of 20 x 3 draws and 2^19 rows x (d + 1) besides the l^2 norm's d + 1
    monkeypatch.setenv("KHBM_BUDGET", str(10**7))
    with pytest.raises(EnumerationBudgetError, match="sign table and largest batch need 34078900 floats"):
        falsify_hanner(LpNorm(2.0, 3), q=2.0, n=20, d=3, mode="type", trials=3, seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_falsifier_refuses_an_overflow_only_before_a_violation():
    # seed 0 draws a trial whose l^1 sign sums at q = 400 leave the double range,
    # after the cotype violation at trial 0 and before any type violation
    args = dict(q=400.0, n=2, d=2, trials=1000, seed=0)
    with pytest.raises(ValueError, match=r"^the sign sums at q = 400\.0 leave the double range$"):
        falsify_hanner(LpNorm(1.0, 2), mode="type", **args)
    assert falsify_hanner(LpNorm(1.0, 2), mode="cotype", **args).trial_index == 0


def test_gap_refuses_sign_sums_that_overflow():
    # 1e5-scale vectors at q = 300: every sign sum's q-th power exceeds the double range
    v = 1e5 * np.array([[3.0, 1.0], [-2.0, 5.0]])
    with pytest.raises(ValueError, match=r"^the sign sums at q = 300\.0 leave the double range$"):
        hanner_gap(LpNorm(1.0, 2), v, 300.0)
    assert math.isfinite(hanner_gap(LpNorm(1.0, 2), v, 30.0).gap)


def test_falsifier_quiet_on_consistent_claims():
    # absolute-sum norms do satisfy the q = 1 cotype inequality
    assert falsify_hanner(LpNorm(1.0, 3), q=1.0, n=3, d=3, mode="cotype", trials=2000, seed=1) is None
    # euclidean case is an identity at q = 2: neither side can be violated
    assert falsify_hanner(LpNorm(2.0, 2), q=2.0, n=2, d=2, mode="type", trials=2000, seed=2) is None
    assert falsify_hanner(LpNorm(2.0, 2), q=2.0, n=2, d=2, mode="cotype", trials=2000, seed=3) is None


def test_falsifier_validation():
    with pytest.raises(ValueError):
        falsify_hanner(LpNorm(1.0, 2), q=1.0, n=2, d=3, mode="type", trials=10, seed=0)
    with pytest.raises(ValueError):
        falsify_hanner(LpNorm(1.0, 2), q=1.0, n=1, d=2, mode="type", trials=10, seed=0)
    with pytest.raises(ValueError):
        falsify_hanner(LpNorm(1.0, 2), q=1.0, n=2, d=2, mode="both", trials=10, seed=0)
    with pytest.raises(ValueError):
        falsify_hanner(LpNorm(1.0, 2), q=0.5, n=2, d=2, mode="type", trials=10, seed=0)
    with pytest.raises(ValueError):
        falsify_hanner(LpNorm(1.0, 2), q=1.0, n=2, d=2, mode="type", trials=0, seed=0)


def test_hlawka_holds_for_l1_and_l2():
    rng = np.random.default_rng(14)
    for norm in (LpNorm(1.0, 3), LpNorm(2.0, 3)):
        for _ in range(200):
            x, y, z = rng.standard_normal((3, 3))
            assert hlawka_check(norm, x, y, z).holds


def test_hlawka_batch_matches_per_triple():
    # against a triple-at-a-time loop with the scalar slack rule; l^inf in
    # R^3 fails the inequality on some triples, so both verdicts occur
    rng = np.random.default_rng(15)
    for norm in (LpNorm(1.0, 3), LpNorm(math.inf, 3)):
        x, y, z = np.moveaxis(rng.standard_normal((300, 3, 3)), 1, 0)
        batch = hlawka_check(norm, x, y, z)
        for i, (a, b, c) in enumerate(zip(x, y, z)):
            n = norm_eval_many(norm, np.stack([a, b, c, a + b + c, a + b, b + c, c + a]))
            lhs, rhs = float(n[0] + n[1] + n[2] + n[3]), float(n[4] + n[5] + n[6])
            assert (batch.lhs[i], batch.rhs[i], batch.gap[i]) == (lhs, rhs, lhs - rhs)
            assert batch.holds[i] == tol.geq(lhs, rhs)
    assert not batch.holds.all()


def test_hlawka_hand_case():
    # x + y + z = 0 forces equality: both sides are 2 + sqrt(2)
    rep = hlawka_check(LpNorm(2.0, 2), [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0])
    assert abs(rep.lhs - (2.0 + math.sqrt(2.0))) < 1e-15
    assert abs(rep.rhs - (2.0 + math.sqrt(2.0))) < 1e-15
    assert rep.holds
