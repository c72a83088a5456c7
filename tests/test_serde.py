"""Wire-format tests for sketches shipped through Spark."""
import pickle
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_huge_N_roundtrip(self):
        """N is stored with its own length, so bounds past 2^64 survive."""
        sk = ReqSketch(32, seed=9, N0=2 ** 70).update(stream_array("uniform", 3000, seed=9))
        blob = serde.to_bytes(sk)
        cp = serde.from_bytes(blob)
        assert cp.N == 2 ** 70 and cp.B == sk.B and cp.n == 3000
        assert serde.to_bytes(cp) == blob


# Layout offsets, as documented in repro.core.serde.
_K, _N_ITEMS, _LEN_N, _HEADER = 8, 24, 77, 78


def _split(blob: bytes):
    """(header incl. N, [[state, count] per level], items) of a payload."""
    levels_at = _HEADER + blob[_LEN_N]
    (num_levels,) = struct.unpack_from("<H", blob, 6)
    levels = [
        list(struct.unpack_from("<QI", blob, levels_at + 12 * h)) for h in range(num_levels)
    ]
    values_at = levels_at + 12 * num_levels
    items = np.frombuffer(blob[values_at:-4], dtype="<f8").copy()
    return bytearray(blob[:levels_at]), levels, items


def _join(header, levels, items) -> bytes:
    """A payload from (possibly tampered) parts, with a valid checksum."""
    body = bytes(header) + b"".join(struct.pack("<QI", *lv) for lv in levels)
    body += np.asarray(items, dtype="<f8").tobytes()
    return body + struct.pack("<I", zlib.crc32(body))


class TestCorruptLevelsRejected:
    """Payloads with a valid checksum are still checked: levels must hold
    no NaN and weigh exactly n, and the parameters must be well-formed."""

    @staticmethod
    def _parts():
        sk = ReqSketch(8, seed=10).update(stream_array("uniform", 5000, seed=10))
        assert sk.num_levels >= 3
        return _split(serde.to_bytes(sk))

    @staticmethod
    def _level_start(levels, h):
        return sum(count for _, count in levels[:h])

    def test_untampered_accepted(self):
        header, levels, items = self._parts()
        (n,) = struct.unpack_from("<Q", header, _N_ITEMS)
        assert serde.from_bytes(_join(header, levels, items)).total_weight() == n

    @pytest.mark.parametrize("level", [0, 2])
    def test_nan_item_rejected(self, level):
        header, levels, items = self._parts()
        items[self._level_start(levels, level)] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            serde.from_bytes(_join(header, levels, items))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_n_rejected(self, delta):
        header, levels, items = self._parts()
        (n,) = struct.unpack_from("<Q", header, _N_ITEMS)
        struct.pack_into("<Q", header, _N_ITEMS, n + delta)
        with pytest.raises(ValueError, match="weigh"):
            serde.from_bytes(_join(header, levels, items))

    def test_dropped_item_rejected(self):
        header, levels, items = self._parts()
        items = np.delete(items, self._level_start(levels, 1))
        levels[1][1] -= 1
        with pytest.raises(ValueError, match="weigh"):
            serde.from_bytes(_join(header, levels, items))

    def test_level_count_mismatch_rejected(self):
        header, levels, items = self._parts()
        levels[0][1] += 1
        with pytest.raises(ValueError, match="level lengths"):
            serde.from_bytes(_join(header, levels, items))

    @pytest.mark.parametrize("k", [7, 0])
    def test_bad_k_rejected(self, k):
        header, levels, items = self._parts()
        struct.pack_into("<I", header, _K, k)
        with pytest.raises(ValueError, match="even integer"):
            serde.from_bytes(_join(header, levels, items))

    def test_unknown_schedule_rejected(self):
        header, levels, items = self._parts()
        header[5] = 2
        with pytest.raises(ValueError, match="schedule"):
            serde.from_bytes(_join(header, levels, items))

    def test_k_not_following_khat_rejected(self):
        sk = ReqSketch.from_error_mergeable(0.1, 0.1, k_const=4).update(np.arange(100.0))
        header, levels, items = _split(serde.to_bytes(sk))
        struct.pack_into("<I", header, _K, sk.k + 2)
        with pytest.raises(ValueError, match="k-hat"):
            serde.from_bytes(_join(header, levels, items))


_HIT = []


def _mark_executed():
    _HIT.append(True)


class _Payload:
    def __reduce__(self):
        return (_mark_executed, ())


class TestFormat:
    # ReqSketch(2, seed=0) after 17 items: two levels, -0.0 and 0.0 kept apart.
    GOLDEN_ITEMS = [5.0, -0.0, 3.5, 1.0, 2.0, 8.0, 0.0, 7.0, 4.0, 6.0, 9.0, -1.0,
                    2.5, 11.0, 10.0, 12.0, 13.0]
    GOLDEN = bytes.fromhex(
        "52455153" "01" "00" "0200"  # magic, version, schedule "req", 2 levels
        "02000000" "20000000"  # k = 2, k_const = 32
        "000000000000f87f"  # k-hat absent (NaN)
        "1100000000000000" "1000000000000000"  # n = 17, min_B = 16
        "d8f7afb4d1b5b4c95f2680f53059533c"  # PCG64 state
        "a9737844bc338158821af73adbda8d41"  # PCG64 inc
        "cfeb0fa3" "00"  # uinteger, has_uint32
        "02" "0001"  # N = 256, two bytes
        "0200000000000000" "09000000"  # level 0: state 2, 9 items
        "0000000000000000" "04000000"  # level 1: state 0, 4 items
        "000000000000f0bf" "0000000000000080" "0000000000000000" "000000000000f03f"
        "0000000000000040" "0000000000000440" "0000000000000c40" "0000000000001040"
        "0000000000001440"  # level 0: -1, -0, 0, 1, 2, 2.5, 3.5, 4, 5
        "0000000000002840" "0000000000001c40" "0000000000002240" "0000000000002a40"
        "5fe2dfff"  # level 1: 12, 7, 9, 13; CRC-32
    )

    def test_golden_bytes(self):
        """The exact payload of one small sketch: levels carry only their
        schedule state and item count, no parameters."""
        sk = ReqSketch(2, seed=0).update(self.GOLDEN_ITEMS)
        assert serde.to_bytes(sk) == self.GOLDEN
        cp = serde.from_bytes(self.GOLDEN)
        assert (cp.k, cp.N, cp.n, cp.B, cp.schedule) == (2, 256, 17, sk.B, "req")
        assert serde.to_bytes(cp) == self.GOLDEN

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            serde.from_bytes(b"garbage")

    def test_unknown_type_rejected(self):
        blob = b"REPROSK1" + pickle.dumps({"type": "mystery"})
        with pytest.raises(ValueError):
            serde.from_bytes(blob)

    def test_pickle_payload_not_executed(self):
        """An old-style pickle payload is refused before anything runs."""
        blob = b"REPROSK1" + pickle.dumps(_Payload())
        _HIT.clear()
        with pytest.raises(ValueError):
            serde.from_bytes(blob)
        assert _HIT == []

    def test_bad_version_rejected(self):
        blob = bytearray(self.GOLDEN)
        blob[4] = 2
        with pytest.raises(ValueError, match="version"):
            serde.from_bytes(bytes(blob))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError):
            serde.from_bytes(self.GOLDEN + b"\0")

    def test_every_truncation_and_bit_flip_rejected(self):
        blob = self.GOLDEN
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                serde.from_bytes(blob[:cut])
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ValueError):
                serde.from_bytes(bytes(flipped))

    def test_bytearray_accepted(self):
        sk = ReqSketch(8).update([1.0, 2.0])
        cp = serde.from_bytes(bytearray(serde.to_bytes(sk)))
        assert cp.n == 2


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False), max_size=300),
    k=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 2 ** 16),
    data=st.data(),
)
def test_damaged_payload_raises_value_error(values, k, seed, data):
    """Any truncation or single-bit flip raises ValueError, nothing else."""
    blob = serde.to_bytes(ReqSketch(k, seed=seed).update(np.array(values)))
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(ValueError):
        serde.from_bytes(blob[:cut])
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(ValueError):
        serde.from_bytes(flipped)
