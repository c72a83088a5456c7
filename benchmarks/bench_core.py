"""Micro-benchmarks of the core sketch operations (update/merge/query)."""
import numpy as np
import pytest

from repro.core.req_sketch import ReqSketch
from repro.synth_data import stream_array

N = 1_000_000


@pytest.fixture(scope="module")
def data():
    return stream_array("uniform", N, seed=1)


def test_update_1m_items(benchmark, data):
    """Streaming throughput at k=64 (the experiments' default)."""
    result = benchmark.pedantic(
        lambda: ReqSketch(64, seed=2).update(data), rounds=3, iterations=1
    )
    assert result.total_weight() == N


def test_merge_two_halves(benchmark, data):
    a0 = ReqSketch(64, seed=3).update(data[: N // 2])
    b0 = ReqSketch(64, seed=4).update(data[N // 2 :])

    def run():
        return a0.copy().merge(b0)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.total_weight() == N


def test_rank_queries_1k(benchmark, data):
    sk = ReqSketch(64, seed=5).update(data)
    qs = np.linspace(0, 1, 1000)
    out = benchmark.pedantic(lambda: sk.ranks(qs), rounds=5, iterations=1)
    assert out.shape == (1000,)


def test_quantile_queries_1k(benchmark, data):
    sk = ReqSketch(64, seed=6).update(data)
    phis = np.linspace(0, 1, 1000)
    out = benchmark.pedantic(lambda: sk.quantiles(phis), rounds=5, iterations=1)
    assert np.all(np.diff(out) >= 0)


def test_batch_then_query(benchmark):
    """The stream_mixed shape at k=32: a 500-item update, then one rank
    and one quantile, over a 250k lognormal stream."""
    x = stream_array("lognormal", 250_000, seed=8)

    def run():
        sk = ReqSketch(32, seed=9)
        for b in range(0, x.size, 500):
            sk.update(x[b : b + 500])
            sk.rank(x[b])
            sk.quantile(0.99)
        return sk

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.total_weight() == x.size


def test_serde_roundtrip(benchmark, data):
    from repro.core import serde

    sk = ReqSketch(64, seed=7).update(data)
    out = benchmark.pedantic(
        lambda: serde.from_bytes(serde.to_bytes(sk)), rounds=10, iterations=1
    )
    assert out.n == N


def test_serde_copy_group_sized(benchmark):
    """The fixed cost a GROUP BY pays per group: encode, decode and copy
    one 30-item k=32 sketch (one level, no compaction)."""
    from repro.core import serde

    sk = ReqSketch(32, seed=10).update(stream_array("lognormal", 30, seed=10))

    def run():
        return serde.from_bytes(serde.to_bytes(sk)).copy()

    out = benchmark.pedantic(run, rounds=200, iterations=10)
    assert out.n == 30 and out.num_levels == 1
