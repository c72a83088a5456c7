"""Property-based tests (hypothesis) for structural invariants.

These pin the *deterministic* invariants — weight conservation, rank
monotonicity, bounds, head exactness, merge associativity of weights —
over adversarially generated inputs; the statistical error bounds are
covered in test_accuracy_statistical.py.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.kll import KllSketch
from repro.core.req_sketch import ReqSketch

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
value_lists = st.lists(finite_floats, min_size=0, max_size=400)
ks = st.sampled_from([2, 4, 8, 16])


@settings(max_examples=60, deadline=None)
@given(values=value_lists, k=ks, seed=st.integers(0, 2 ** 16))
def test_req_weight_equals_n(values, k, seed):
    sk = ReqSketch(k, seed=seed).update(np.array(values))
    assert sk.total_weight() == len(values) == sk.n


@settings(max_examples=40, deadline=None)
@given(values=value_lists, k=ks, seed=st.integers(0, 2 ** 16))
def test_req_rank_bounds_and_extremes(values, k, seed):
    sk = ReqSketch(k, seed=seed).update(np.array(values))
    if values:
        assert sk.rank(max(values)) == len(values)
        assert sk.rank(min(values) - 1.0) == 0
    assert sk.rank(2e12) == len(values)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(finite_floats, min_size=2, max_size=300), k=ks,
       seed=st.integers(0, 2 ** 16))
def test_req_rank_monotone(values, k, seed):
    sk = ReqSketch(k, seed=seed).update(np.array(values))
    qs = np.sort(np.array(values))
    est = sk.ranks(qs)
    assert np.all(np.diff(est) >= 0)


@settings(max_examples=40, deadline=None)
@given(
    a=value_lists, b=value_lists, k=ks,
    s1=st.integers(0, 2 ** 10), s2=st.integers(0, 2 ** 10),
)
def test_req_merge_weight_additive(a, b, k, s1, s2):
    sa = ReqSketch(k, seed=s1).update(np.array(a))
    sb = ReqSketch(k, seed=s2).update(np.array(b))
    sa.merge(sb)
    assert sa.total_weight() == len(a) + len(b)
    assert sb.total_weight() == len(b)  # source untouched


@settings(max_examples=30, deadline=None)
@given(
    pieces=st.lists(value_lists, min_size=1, max_size=5),
    k=ks, seed=st.integers(0, 2 ** 10),
)
def test_req_merge_any_grouping_conserves_weight(pieces, k, seed):
    total = sum(len(p) for p in pieces)
    sketches = [
        ReqSketch(k, seed=seed + i).update(np.array(p)) for i, p in enumerate(pieces)
    ]
    acc = sketches[0]
    for s in sketches[1:]:
        acc = acc.merge(s)
    assert acc.total_weight() == total


@settings(max_examples=30, deadline=None)
@given(values=st.lists(finite_floats, min_size=1, max_size=400, unique=True),
       k=ks, seed=st.integers(0, 2 ** 16))
def test_req_head_exact_any_order(values, k, seed):
    """Ranks <= protected_head estimated exactly for arbitrary inputs."""
    sk = ReqSketch(k, seed=seed).update(np.array(values))
    srt = np.sort(np.array(values))
    head = min(sk.protected_head, len(values))
    est = sk.ranks(srt[:head])
    assert np.array_equal(est, np.arange(1, head + 1))


@settings(max_examples=30, deadline=None)
@given(values=value_lists, seed=st.integers(0, 2 ** 16))
def test_kll_weight_equals_n(values, seed):
    sk = KllSketch(k=20, seed=seed).update(np.array(values))
    assert sk.total_weight() == len(values)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(finite_floats, min_size=1, max_size=300),
       seed=st.integers(0, 2 ** 16))
def test_quantile_in_stored_range(values, seed):
    sk = ReqSketch(4, seed=seed).update(np.array(values))
    q = sk.quantile(0.5)
    assert min(values) <= q <= max(values)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(finite_floats, min_size=1, max_size=300),
       k=ks, seed=st.integers(0, 2 ** 16))
def test_serde_roundtrip_property(values, k, seed):
    from repro.core import serde

    sk = ReqSketch(k, seed=seed).update(np.array(values))
    cp = serde.from_bytes(serde.to_bytes(sk))
    qs = np.sort(np.array(values))
    assert np.array_equal(cp.ranks(qs), sk.ranks(qs))


# ---------------------------------------------------------------- hostile input
#
# Orders and values that stress the sorted-run invariant of every level
# (one sorted run plus a tail of unsorted appends): sorted and
# reverse-sorted streams, all-equal and heavily duplicated values, +-inf
# and +-0.0, one-item batches, and merges of operands in different
# parameter epochs.

HOSTILE_KINDS = ("sorted", "reversed", "equal", "duplicates", "inf_zero")


@st.composite
def hostile_batches(draw, max_n=500):
    """A hostile stream, cut into batches (possibly of one item each)."""
    kind = draw(st.sampled_from(HOSTILE_KINDS))
    n = draw(st.integers(0, max_n))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind == "sorted":
        x = np.sort(g.normal(size=n))
    elif kind == "reversed":
        x = np.sort(g.normal(size=n))[::-1]
    elif kind == "equal":
        x = np.full(n, draw(finite_floats))
    elif kind == "duplicates":
        x = g.integers(0, 3, size=n).astype(np.float64)
    else:
        x = g.choice([-np.inf, np.inf, -0.0, 0.0, -1.0, 1.0], size=n)
    size = draw(st.sampled_from([1, 7, 64, max(n, 1)]))
    return [x[i : i + size] for i in range(0, n, size)]


def assert_level_invariants(sk: ReqSketch, data: np.ndarray) -> None:
    for lv in sk.levels:
        raw = np.sort(lv.values())  # a copy, taken before any merge of runs
        s = lv.sorted_values()
        assert np.all(s[:-1] <= s[1:])
        assert np.array_equal(s, raw)
        assert lv.sorted_values() is s
        with pytest.raises(ValueError):
            s[:1] = 0.0
    assert sk.total_weight() == sk.n == data.size
    srt = np.sort(data)
    qs = np.unique(data)
    true = np.searchsorted(srt, qs, side="right")
    head = true <= sk.protected_head
    assert np.array_equal(sk.ranks(qs[head]), true[head])


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(st.tuples(st.booleans(), hostile_batches()), min_size=1, max_size=4),
    k=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 2 ** 16),
)
def test_req_level_invariants_hostile(ops, k, seed):
    """After any mix of hostile updates and merges every level is sorted
    on demand, weight is exact and the protected head is exact."""
    sk = ReqSketch(k, seed=seed)
    seen = []
    for i, (merge, batches) in enumerate(ops):
        if merge:
            other = ReqSketch(k, seed=seed + i + 1)
            for b in batches:
                other.update(b)
            sk.merge(other)
        else:
            for b in batches:
                sk.update(b)
        seen.extend(batches)
        assert_level_invariants(sk, np.concatenate(seen) if seen else np.empty(0))


@settings(max_examples=30, deadline=None)
@given(
    small=hostile_batches(max_n=16), big=hostile_batches(max_n=400),
    seed=st.integers(0, 2 ** 10), big_first=st.booleans(),
)
def test_req_merge_across_epochs(small, big, seed, big_first):
    """Operands several N-squarings apart (k=2: N = 16, 256, 65536)."""
    a = ReqSketch(2, seed=seed)
    for b in small:
        a.update(b)
    c = ReqSketch(2, seed=seed + 1)
    for b in big:
        c.update(b)
    c.update(np.arange(300.0))  # two growth epochs above a (N = 16)
    assert c.N >= a.N ** 4
    data = np.concatenate(small + big + [np.arange(300.0)])
    merged = c.merge(a) if big_first else a.merge(c)
    assert_level_invariants(merged, data)


@settings(max_examples=40, deadline=None)
@given(batches=hostile_batches(), k=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2 ** 16))
def test_queries_do_not_change_levels(batches, k, seed):
    """Sorting a level for a query leaves the bytes a later compaction
    sees unchanged (stable sorts compose), even with +-0.0 ties."""
    quiet, asked = ReqSketch(k, seed=seed), ReqSketch(k, seed=seed)
    for b in batches:
        quiet.update(b)
        asked.update(b)
        asked.rank(0.0)
        asked.quantile(0.5)
    assert [lv.state for lv in quiet.levels] == [lv.state for lv in asked.levels]
    for lq, la in zip(quiet.levels, asked.levels):
        assert lq.sorted_values().tobytes() == la.sorted_values().tobytes()
