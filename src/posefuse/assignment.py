"""Bipartite matching and cycle-consistent clustering of affinities."""

from __future__ import annotations

import math

import numpy as np


def hungarian_max(a: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total-weight assignment over a dense score matrix.

    Rectangular inputs match min(N, M) pairs. Entries of -inf are never part
    of the result; their rows/columns simply stay unmatched, as few as a
    matching of finite entries allows. NaN or +inf entries raise ValueError.
    Pairs come sorted by row. When the rows' first maxima (the columns',
    for a tall matrix) are finite and lie in distinct columns, and no finite
    entry exceeds 2**1000 in size, they are the answer, taken without the
    full solve.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return []
    tall = a.shape[1] < a.shape[0]
    m = a.T if tall else a
    raw = m.tolist()
    # the first maximum of each row; argmax finds a row's NaN before any number
    cols = m.argmax(axis=1).tolist()
    if len(set(cols)) == len(cols) and _first_scans_settle(raw, cols):
        pairs = list(enumerate(cols))
    else:
        pairs = _solve_in_full(raw)
    return sorted((r, c) for c, r in pairs) if tall else pairs


# finite entries up to this size in magnitude are solved unscaled
_UNSCALED = 2.0 ** 1000


def _first_scans_settle(raw: list[list[float]], cols: list[int]) -> bool:
    """Whether the full solve matches each row i of raw to its first maximum
    cols[i], given distinct cols. It does when each of these maxima is
    finite and no finite entry exceeds _UNSCALED in magnitude: then no entry
    is NaN or +inf, the solve's scores are the entries with -inf below every
    finite one, and in _assign_max each row's first scan, with the duals
    still 0, picks the column of its first maximum, which is still free."""
    return all(-_UNSCALED <= row[j] <= _UNSCALED for row, j in zip(raw, cols)) \
        and not any(-math.inf < x < -_UNSCALED for row in raw for x in row)


def _solve_in_full(raw: list[list[float]]) -> list[tuple[int, int]]:
    """The (row, column) pairs of finite entries in _assign_max's answer on
    rows raw, no more rows than columns; -inf entries go in as a finite
    stand-in that every matching of finite entries beats."""
    score = raw
    # a finite total means every entry is finite, which is the common case;
    # a total of -inf rules out NaN and +inf, and any other total may also
    # come from finite entries that overflow
    total = sum(map(sum, raw))
    if not math.isfinite(total):
        if total != -math.inf and any(x != x or x == math.inf for row in raw for x in row):
            raise ValueError("matrix contains invalid numeric entries")
        # n pairs of finite entries up to S in size differ by at most 2 n S in
        # total, so trading a finite pair for `low` always loses; scaling by a
        # power of two, which changes no comparison, keeps `low` finite
        S = max([abs(x) for row in raw for x in row if x != -math.inf], default=0.0)
        s = math.ldexp(1.0, 1000 - math.frexp(S)[1]) if S > _UNSCALED else 1.0
        low = -(2 * len(raw) + 1) * (S * s) - 1.0
        score = [[low if x == -math.inf else x * s for x in row] for row in raw]
    return [(i, j) for i, j in enumerate(_assign_max(score, len(raw), len(raw[0])))
            if raw[i][j] != -math.inf]


def _assign_max(score: list[list[float]], nr: int, nc: int) -> list[int]:
    """Column of each row in a maximum-score assignment, for finite scores
    with nr <= nc.

    Shortest augmenting paths over the costs -score with dual variables u, v
    (Crouse, "On implementing 2D rectangular assignment algorithms", IEEE
    TAES 2016), in the loop order of scipy's linear_sum_assignment, so ties
    resolve the same way: each row's Dijkstra scans the columns still in play
    from a list that starts in descending index order and drops a chosen
    column by swapping the last entry into its place; the lowest reduced cost
    wins, and a tie goes to a column that has no row yet. Subtracting a
    score is the same IEEE operation as adding its cost, so every reduced
    cost equals scipy's bit for bit.
    """
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # The first scan, from the free row `cur` (u[cur] is still 0), sees
        # every column in descending order: of the tied lowest costs it keeps
        # the lowest-index free column, else the highest-index one.
        dist = [-x - y for x, y in zip(score[cur], v)]
        low = min(dist)
        j = dist.index(low)
        if row4col[j] >= 0:
            ties = [k for k in range(j, nc) if dist[k] == low]
            free = [k for k in ties if row4col[k] < 0]
            j = free[0] if free else ties[-1]
        if row4col[j] < 0:
            u[cur] = low
            row4col[j] = cur
            col4row[cur] = j
            continue
        path = [cur] * nc
        remaining = list(range(nc - 1, -1, -1))
        remaining[nc - 1 - j] = remaining[-1]
        remaining.pop()
        rows_seen = [cur]
        cols_seen = [j]
        while row4col[j] >= 0:
            i = row4col[j]
            rows_seen.append(i)
            si, ui, base = score[i], u[i], low
            low, index = inf, -1
            for it, j in enumerate(remaining):
                r = base - si[j] - ui - v[j]
                if r < dist[j]:
                    path[j] = i
                    dist[j] = r
                else:
                    r = dist[j]
                if r < low or (r == low and row4col[j] < 0):
                    low, index = r, it
            if low == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += low
        for i in rows_seen[1:]:
            u[i] += low - dist[col4row[i]]
        for k in cols_seen:
            v[k] -= low - dist[k]
        # augment along the path that ends at the free column j
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def partition_cycle_consistent(a: np.ndarray, max_exact: int = 12) -> list[int]:
    """Cluster items to maximize the sum of within-cluster affinities; the
    cluster label of each item, numbered 0, 1, ... in order of first
    appearance.

    The induced pairwise decisions are transitive by construction (the result
    is a partition), and -inf pairs are never co-clustered, which is how
    same-camera exclusivity is encoded. Up to max_exact items the optimum is
    found by branch and bound over set partitions; larger inputs fall back to
    greedy agglomeration, merging the best positive-sum cluster pair until
    none remains.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return []
    labels = _partition_exact(a) if n <= max_exact else _partition_greedy(a)
    # no forbidden pair shares a label
    assert not any(a[i, j] == -math.inf for i, j in _co_clustered(labels))
    return labels


def _co_clustered(labels: list[int]):
    """Every pair (i, j), i < j, of items that share a label."""
    first: dict[int, list[int]] = {}
    for j, lab in enumerate(labels):
        mem = first.setdefault(lab, [])
        for i in mem:
            yield i, j
        mem.append(j)


def _partition_exact(a: np.ndarray) -> list[int]:
    n = a.shape[0]
    finite = np.where(np.isfinite(a), a, 0.0)
    # the search reads Python floats and bools: the same IEEE sums as numpy
    # scalars, without their per-access cost
    gain = finite.tolist()
    forbidden = (a == -math.inf).tolist()
    # suffix[i]: optimistic extra weight from pairs whose larger index is >= i.
    # A column with two or more positive entries is summed by numpy, whose
    # summation order a Python sum need not share, and a bound one ulp off
    # could pick another of two equal-objective partitions; a column with at
    # most one positive entry sums to exactly that entry.
    suffix = [0.0] * (n + 1)
    pos = None
    for q in range(n - 1, -1, -1):
        col = [gain[i][q] for i in range(q) if gain[i][q] > 0]
        if len(col) > 1:
            if pos is None:
                pos = np.where(finite > 0, finite, 0.0)
            col = [float(np.add.reduce(pos[:q, q]))]
        suffix[q] = suffix[q + 1] + sum(col)

    best_obj = -math.inf
    best = list(range(n))
    labels = [0] * n
    members: list[list[int]] = []

    def rec(i: int, obj: float):
        nonlocal best_obj, best
        if obj + suffix[i] <= best_obj:
            return
        if i == n:
            best_obj = obj
            best = labels.copy()
            return
        gi, fi = gain[i], forbidden[i]
        for ci, mem in enumerate(members):
            add = 0.0
            for j in mem:
                if fi[j]:
                    break
                add += gi[j]
            else:
                labels[i] = ci
                mem.append(i)
                rec(i + 1, obj + add)
                mem.pop()
        labels[i] = len(members)  # so labels count up in order of first appearance
        members.append([i])
        rec(i + 1, obj)
        members.pop()

    rec(0, 0.0)
    return best


def _partition_greedy(a: np.ndarray) -> list[int]:
    n = a.shape[0]
    # pairs never to merge: forbidden ones, the lower triangle with the
    # diagonal, and, once a cluster is folded away, its row and column
    blocked = np.isneginf(a)
    lower = np.tri(n, dtype=bool)
    cross = np.where(np.isfinite(a), a, 0.0)
    np.fill_diagonal(cross, 0.0)
    owner = np.arange(n)
    while True:
        cand = np.where(blocked | lower, -np.inf, cross)
        i, j = divmod(int(np.argmax(cand)), n)
        if not 0.0 < cand[i, j] < math.inf:  # also stops at NaN
            break
        # fold cluster j into cluster i
        cross[i, :] += cross[j, :]
        cross[:, i] += cross[:, j]
        blocked[i, :] |= blocked[j, :]
        blocked[:, i] |= blocked[:, j]
        cross[i, i] = 0.0
        blocked[j, :] = True
        blocked[:, j] = True
        owner[owner == j] = i
    # as i < j, each cluster's owner is its first item, so ranking the owners
    # numbers the clusters in order of first appearance
    return np.unique(owner, return_inverse=True)[1].tolist()
