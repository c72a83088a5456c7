"""Wire-format tests for sketches shipped through Spark."""
import numpy as np
import pytest

from repro.baselines.kll import KllSketch
from repro.core import serde
from repro.core.req_sketch import ReqSketch
from repro.synth_data import stream_array


class TestReqRoundtrip:
    @pytest.mark.parametrize("n", [0, 5, 1000, 30_000])
    def test_roundtrip_preserves_estimates(self, n):
        sk = ReqSketch(8, seed=1)
        if n:
            sk.update(stream_array("uniform", n, seed=1))
        cp = serde.from_bytes(serde.to_bytes(sk))
        assert isinstance(cp, ReqSketch)
        assert cp.n == sk.n and cp.total_weight() == sk.total_weight()
        qs = np.linspace(0, 1, 25)
        assert np.array_equal(cp.ranks(qs), sk.ranks(qs))
        assert cp.protected_head == sk.protected_head

    def test_roundtrip_preserves_params(self):
        sk = ReqSketch.from_error_mergeable(0.1, 0.1, k_const=4).update(
            stream_array("uniform", 10_000, seed=2)
        )
        cp = serde.from_bytes(serde.to_bytes(sk))
        assert cp.k == sk.k and cp.N == sk.N and cp._khat == sk._khat

    def test_roundtrip_preserves_schedule_states(self):
        sk = ReqSketch(8, seed=3, schedule="all").update(stream_array("uniform", 20_000, seed=3))
        cp = serde.from_bytes(serde.to_bytes(sk))
        assert cp.schedule == "all"
        assert [lv.state for lv in cp.levels] == [lv.state for lv in sk.levels]

    def test_deserialized_sketch_still_updatable(self):
        sk = ReqSketch(8, seed=4).update(stream_array("uniform", 5000, seed=4))
        cp = serde.from_bytes(serde.to_bytes(sk))
        cp.update(stream_array("uniform", 5000, seed=5))
        assert cp.total_weight() == 10_000

    def test_deserialized_sketch_mergeable(self):
        a = serde.from_bytes(
            serde.to_bytes(ReqSketch(8, seed=6).update(stream_array("uniform", 4000, seed=6)))
        )
        b = serde.from_bytes(
            serde.to_bytes(ReqSketch(8, seed=7).update(stream_array("uniform", 6000, seed=7)))
        )
        a.merge(b)
        assert a.total_weight() == 10_000

    def test_rng_state_roundtrip_determinism(self):
        """Serialize/deserialize mid-stream: identical future behaviour."""
        data = stream_array("uniform", 20_000, seed=8)
        sk = ReqSketch(8, seed=8).update(data[:10_000])
        cp = serde.from_bytes(serde.to_bytes(sk))
        sk.update(data[10_000:])
        cp.update(data[10_000:])
        qs = np.linspace(0, 1, 40)
        assert np.array_equal(sk.ranks(qs), cp.ranks(qs))


def _reencode(d: dict) -> bytes:
    """Wire bytes of a (possibly tampered) sketch dict."""
    import pickle

    return b"REPROSK1" + pickle.dumps(d)


class TestCorruptLevelsRejected:
    """Decoded levels must hold no NaN and weigh exactly n."""

    @staticmethod
    def _dict():
        sk = ReqSketch(8, seed=10).update(stream_array("uniform", 5000, seed=10))
        assert sk.num_levels >= 3
        return sk.to_dict()

    def test_untampered_accepted(self):
        d = self._dict()
        assert serde.from_bytes(_reencode(d)).total_weight() == d["n"]

    @pytest.mark.parametrize("level", [0, 2])
    def test_nan_item_rejected(self, level):
        d = self._dict()
        d["levels"][level]["values"][0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            serde.from_bytes(_reencode(d))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_n_rejected(self, delta):
        d = self._dict()
        d["n"] += delta
        with pytest.raises(ValueError, match="weigh"):
            serde.from_bytes(_reencode(d))

    def test_dropped_item_rejected(self):
        d = self._dict()
        d["levels"][1]["values"] = d["levels"][1]["values"][1:]
        with pytest.raises(ValueError, match="weigh"):
            serde.from_bytes(_reencode(d))


class TestKllRoundtrip:
    def test_roundtrip(self):
        sk = KllSketch(k=50, seed=9).update(stream_array("uniform", 9000, seed=9))
        cp = serde.from_bytes(serde.to_bytes(sk))
        assert isinstance(cp, KllSketch)
        qs = np.linspace(0, 1, 25)
        assert np.array_equal(cp.ranks(qs), sk.ranks(qs))


class TestFormat:
    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            serde.from_bytes(b"garbage")

    def test_unknown_type_rejected(self):
        import pickle

        blob = b"REPROSK1" + pickle.dumps({"type": "mystery"})
        with pytest.raises(ValueError):
            serde.from_bytes(blob)

    def test_bytearray_accepted(self):
        sk = ReqSketch(8).update([1.0, 2.0])
        cp = serde.from_bytes(bytearray(serde.to_bytes(sk)))
        assert cp.n == 2
