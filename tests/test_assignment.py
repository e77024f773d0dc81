"""Matching and partition tests against brute-force oracles."""

from fractions import Fraction

import numpy as np
import pytest

from posefuse import assignment
from posefuse.assignment import hungarian_max, partition_cycle_consistent

from oracles import (
    all_partitions,
    bell_number,
    best_finite_matching,
    best_partition_total,
    brute_force_assignment_total,
    partition_labels,
    partition_objective,
)


def total_of(pairs, a):
    return sum(a[r, c] for r, c in pairs)


@pytest.fixture
def full_solves(monkeypatch):
    """The calls of hungarian_max that ran the full solve, one entry each;
    the others took the rows' first maxima at once."""
    calls = []
    solve = assignment._solve_in_full

    def counted(raw):
        calls.append(len(raw))
        return solve(raw)

    monkeypatch.setattr(assignment, "_solve_in_full", counted)
    return calls


def solved_in_full(a):
    """hungarian_max's pairs as the full solve finds them."""
    tall = a.shape[1] < a.shape[0]
    pairs = assignment._solve_in_full((a.T if tall else a).tolist())
    return sorted((r, c) for c, r in pairs) if tall else pairs


def distinct_first_maxima(rng, n, m, scale):
    """An n x m matrix whose rows (columns, when tall) have their first
    maxima in distinct columns (rows)."""
    k, w = min(n, m), max(n, m)
    a = rng.uniform(-1.0, 1.0, size=(k, w)) * scale
    a[np.arange(k), rng.permutation(w)[:k]] = scale
    return a if n <= m else a.T


def test_hungarian_hand_example():
    a = np.array([[5.0, 1.0], [2.0, 3.0]])
    pairs = hungarian_max(a)
    assert sorted(pairs) == [(0, 0), (1, 1)]
    assert total_of(pairs, a) == 8.0


def test_hungarian_matches_brute_force_small():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        a = rng.normal(size=(n, m))
        got = total_of(hungarian_max(a), a)
        want = brute_force_assignment_total(a)
        assert abs(got - want) < 1e-9


def test_hungarian_rectangular_counts():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 6))
    pairs = hungarian_max(a)
    assert len(pairs) == 3
    assert len({r for r, _ in pairs}) == 3
    assert len({c for _, c in pairs}) == 3


def test_hungarian_never_matches_forbidden():
    a = np.array([[float("-inf"), 5.0], [float("-inf"), 4.0]])
    pairs = hungarian_max(a)
    assert pairs == [(0, 1)]
    # forbidden pairs are excluded even when that shrinks the matching
    a = np.full((2, 2), float("-inf"))
    assert hungarian_max(a) == []


def test_hungarian_translation_invariance():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.normal(size=(5, 5))
        base = sorted(hungarian_max(a))
        shifted = sorted(hungarian_max(a + 7.3))
        assert base == shifted


def test_hungarian_empty():
    assert hungarian_max(np.zeros((0, 4))) == []
    assert hungarian_max(np.zeros((3, 0))) == []


def test_hungarian_pairs_equal_scipy_ties_included(full_solves):
    # scipy serves only as an oracle here: the solver ports its loop order,
    # so even among tied optima it must pick the same pairs, whether it takes
    # the rows' first maxima at once or runs the full solve
    lsa = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(2016)
    solved_at_once = 0
    for trial in range(18000):
        n, m = (int(x) for x in rng.integers(1, 9, size=2))
        kind = trial % 6
        if kind == 0:
            a = rng.normal(size=(n, m))
        elif kind == 1:
            a = rng.integers(-2, 3, size=(n, m)).astype(float)
        elif kind == 2:
            a = rng.integers(0, 2, size=(n, m)).astype(float)
        elif kind == 3:
            a = np.full((n, m), float(rng.integers(-3, 4)))
        elif kind == 4:
            a = distinct_first_maxima(rng, n, m, 1.0)
        else:  # 0.0 and -0.0 tie
            a = rng.choice([0.0, -0.0, -1.0], size=(n, m))
        if (trial // 6) % 3 == 0:
            a[rng.random((n, m)) < 0.3] = -np.inf
        forbidden = a == -np.inf
        rows, cols = lsa(np.where(forbidden, -1e15, a), maximize=True)
        keep = ~forbidden[rows, cols]
        want = list(zip(rows[keep].tolist(), cols[keep].tolist()))
        before = len(full_solves)
        assert hungarian_max(a) == want, a
        solved_at_once += len(full_solves) == before
    assert 3000 < solved_at_once < 15000


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_hungarian_rejects_nan_and_plus_inf(bad):
    a = np.array([[1.0, 2.0], [3.0, float("-inf")]])
    a[0, 1] = bad
    with pytest.raises(ValueError, match="invalid numeric entries"):
        hungarian_max(a)


def test_hungarian_accepts_finite_entries_whose_total_overflows():
    # the sum that screens for NaN and +inf overflows to +inf, -inf or NaN
    big = 1e308
    for a, want in [([[big, big], [big, 0.0]], [(0, 1), (1, 0)]),
                    ([[-big, -big], [-big, 0.0]], [(0, 0), (1, 1)]),
                    ([[big, big], [-np.inf, 0.0]], [(0, 0), (1, 1)]),
                    ([[-big, -big], [-np.inf, big]], [(0, 0), (1, 1)])]:
        assert hungarian_max(np.array(a)) == want, a


def test_hungarian_matches_the_most_finite_pairs_then_the_best_total(full_solves):
    # entries up to the float limit, where a fixed stand-in for -inf is not
    # below every finite matching; ties in a fifth of the matrices. Half the
    # matrices have their rows' first maxima in distinct columns, which
    # hungarian_max takes at once unless an entry exceeds 2**1000 in size;
    # its pairs must be the full solve's either way.
    big = 2.0 ** 1000
    cases = [np.array([[1e308, -np.inf], [1e308, -1e308]]),
             np.array([[0.0, -0.0], [-0.0, 0.0]]), np.array([[-0.0, 0.0, -1.0]]).T,
             np.array([[1.0, -2.0 * big], [-np.inf, 2.0]]),
             # scaled to keep the entries within 2**1000, -5e-324 becomes
             # -0.0, which ties with 0.0 and comes first
             np.array([[-5e-324, 0.0, -2.0 ** 10 * big], [-np.inf, -np.inf, 1.0]]),
             np.array([[-5e-324, -np.inf], [0.0, -np.inf], [-2.0 ** 10 * big, 1.0]])]
    rng = np.random.default_rng(16)
    for trial in range(2000):
        n, m = (int(x) for x in rng.integers(1, 6, size=2))
        scale = (1.0, 1e15, 1e300, 1e308)[(trial // 2) % 4]
        a = rng.uniform(-1.0, 1.0, size=(n, m)) * scale
        if trial % 5 == 0:
            a = rng.integers(-2, 3, size=(n, m)) * (scale / 2)
        if trial % 2:
            a = distinct_first_maxima(rng, n, m, scale)
        a[(rng.random((n, m)) < (trial % 3) * 0.3) & (trial % 2 == 0 or a < scale)] = -np.inf
        if trial % 7 == 0:
            a[rng.integers(n), rng.integers(m)] = -1.5 * big
        cases.append(a)
    solved_at_once = 0
    for a in cases:
        before = len(full_solves)
        pairs = hungarian_max(a)
        solved_at_once += len(full_solves) == before
        assert pairs == solved_in_full(a), a
        size, best = best_finite_matching(a)
        assert len(pairs) == size, a
        got = sum((Fraction(a[r, c]) for r, c in pairs), Fraction(0))
        assert abs(got - best) <= 1e-9 * np.abs(a[np.isfinite(a)]).max(initial=1.0), a
        # a NaN or +inf entry anywhere still raises
        for bad in (np.nan, np.inf):
            b = a.copy()
            b[rng.integers(b.shape[0]), rng.integers(b.shape[1])] = bad
            with pytest.raises(ValueError, match="invalid numeric entries"):
                hungarian_max(b)
    assert 600 < solved_at_once < len(cases) - 600


def test_partition_hand_example():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 0.5
    a[0, 2] = a[2, 0] = 0.4
    a[1, 2] = a[2, 1] = -0.9
    labels = partition_cycle_consistent(a)
    assert partition_objective(labels, a) == 0.5
    assert labels[0] == labels[1] != labels[2]


def test_partition_all_negative_gives_singletons():
    a = -np.ones((4, 4))
    np.fill_diagonal(a, 0.0)
    assert partition_cycle_consistent(a) == [0, 1, 2, 3]


def test_partition_matches_enumeration():
    rng = np.random.default_rng(23)
    n_checked = 0
    for _ in range(120):
        n = int(rng.integers(2, 8))
        a = rng.normal(scale=0.8, size=(n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        # sprinkle forbidden pairs like same-camera exclusions
        for _ in range(int(rng.integers(0, n))):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                a[i, j] = a[j, i] = float("-inf")
        got = partition_objective(partition_cycle_consistent(a), a)
        want = best_partition_total(a)
        assert abs(got - want) < 1e-9
        n_checked += 1
    assert n_checked == 120


def test_partition_camera_exclusivity_holds_even_with_positive_forbidden_neighbors():
    # strong mutual affinities around a forbidden pair must not co-cluster it
    a = np.array([
        [0.0, 5.0, 5.0],
        [5.0, 0.0, float("-inf")],
        [5.0, float("-inf"), 0.0],
    ])
    labels = partition_cycle_consistent(a)
    assert labels[1] != labels[2]


@pytest.mark.skipif(not __debug__, reason="python -O strips the check")
def test_partition_rejects_a_co_clustered_forbidden_pair(monkeypatch):
    a = np.zeros((3, 3))
    a[0, 2] = a[2, 0] = float("-inf")
    monkeypatch.setattr(assignment, "_partition_exact", lambda a: [0] * a.shape[0])
    with pytest.raises(AssertionError):
        partition_cycle_consistent(a)
    a[0, 2] = a[2, 0] = 0.0
    assert partition_cycle_consistent(a) == [0, 0, 0]


def test_partition_greedy_path_feasible_and_sane():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = 20
        a = rng.normal(scale=0.5, size=(n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        ids = rng.integers(0, 5, size=n)
        same = ids[:, None] == ids[None, :]
        a[same] = float("-inf")
        np.fill_diagonal(a, 0.0)
        labels = partition_cycle_consistent(a, max_exact=12)
        obj = partition_objective(labels, a)
        assert np.isfinite(obj)
        assert obj >= 0.0  # never worse than all singletons
        for lab in set(labels):
            cams = [ids[i] for i, other in enumerate(labels) if other == lab]
            assert len(cams) == len(set(cams))


def test_greedy_agrees_with_exact_on_easy_instances():
    # block-structured affinities: clear positive blocks, negative across
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = 15
        truth = rng.integers(0, 3, size=n)
        a = np.where(truth[:, None] == truth[None, :],
                     rng.uniform(0.5, 1.0, size=(n, n)),
                     rng.uniform(-1.0, -0.4, size=(n, n)))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        labels = partition_cycle_consistent(a, max_exact=0)  # force greedy
        for i in range(n):
            for j in range(n):
                assert (labels[i] == labels[j]) == (truth[i] == truth[j])


def test_partition_labels_are_canonical():
    # a plain list of ints, numbered 0, 1, ... in order of first appearance,
    # from the exact search and from the greedy fallback alike
    rng = np.random.default_rng(29)
    for max_exact in (12, 0):
        for n in range(1, 10):
            a = tied_affinities(rng, n, n_cams=n)
            labels = partition_cycle_consistent(a, max_exact)
            assert type(labels) is list and len(labels) == n
            assert all(type(lab) is int for lab in labels)
            first = list(dict.fromkeys(labels))
            assert first == list(range(len(first)))
    assert partition_cycle_consistent(np.zeros((0, 0))) == []


def test_partition_enumeration_counts():
    # sanity-check the oracle itself: Bell numbers for small n
    assert bell_number(1) == 1
    assert bell_number(3) == 5
    assert bell_number(8) == 4140
    assert sum(1 for _ in all_partitions(3)) == 5
    assert sum(1 for _ in all_partitions(8)) == 4140


def tied_affinities(rng, n, n_cams):
    """A symmetric matrix with a zero diagonal whose entries come from a few
    values, so that equal-objective partitions are common: -inf for pairs
    from one camera and for some others, exact zeros, and repeated negative
    and positive values."""
    cams = rng.integers(0, n_cams, size=n)
    vals = rng.choice([-np.inf, -1.0, -0.25, 0.0, 0.25, 0.5, 1.0], size=(n, n),
                      p=[0.1, 0.2, 0.15, 0.2, 0.15, 0.1, 0.1])
    a = np.triu(vals, 1)
    a = a + a.T
    a[cams[:, None] == cams[None, :]] = -np.inf
    np.fill_diagonal(a, 0.0)
    return a


def test_exact_partition_returns_the_reference_labels_ties_included():
    rng = np.random.default_rng(907)
    ties = 0
    for n in range(2, 13):
        for trial in range(40 if n <= 9 else 8):
            a = tied_affinities(rng, n, n_cams=max(2, n // 2 + trial % 3))
            if trial % 5 == 0:  # some matrices with untied finite values
                a = np.where(np.isfinite(a) & (a != 0), a + rng.normal(0, 0.1, a.shape), a)
                a = np.triu(a, 1) + np.triu(a, 1).T
            got = partition_cycle_consistent(a)
            want = partition_labels(a)
            assert got == want.tolist(), (n, trial)
            ties += partition_objective(want, a) == partition_objective(
                np.arange(n), a) and want.max() < n - 1
    assert ties >= 10  # a merge that only ties with all singletons was kept


def test_greedy_partition_returns_the_reference_labels():
    rng = np.random.default_rng(908)
    for n in range(13, 41):
        for trial in range(3):
            a = tied_affinities(rng, n, n_cams=n // 3 + trial)
            if trial == 2:
                a = np.where(np.isfinite(a), a + rng.normal(0, 0.1, a.shape), a)
                a = np.triu(a, 1) + np.triu(a, 1).T
            got = partition_cycle_consistent(a, max_exact=12)
            assert got == partition_labels(a, 12).tolist(), (n, trial)
