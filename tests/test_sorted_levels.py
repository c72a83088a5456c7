"""Same-seed golden fingerprints of whole sketches.

Each case pins, for a fixed seed, the SHA-256 of every level's sorted
float64 bytes, every level's schedule state and the answers of
``quantiles(PHI)``.  Any change to how levels are stored, sorted or
compacted must leave these bit-identical: the compaction schedule and the
random offsets are the algorithm, the storage layout is not.
"""
import hashlib

import numpy as np

from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import merge_balanced
from repro.synth_data import stream_array

PHI = [1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0]


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def fingerprint(sk: ReqSketch) -> dict:
    return {
        "n": sk.n,
        "N": sk.N,
        "states": [lv.state for lv in sk.levels],
        "levels": [_sha(lv.sorted_values()) for lv in sk.levels],
        "quantiles": _sha(sk.quantiles(PHI)),
    }


def test_batched_stream_with_queries():
    """k=32 lognormal stream in 500-item batches, a quantile after each."""
    x = stream_array("lognormal", 250_000, seed=11)
    sk = ReqSketch(32, seed=12)
    answers = []
    for b in range(0, x.size, 500):
        sk.update(x[b : b + 500])
        answers.append(sk.quantile(PHI[b // 500 % len(PHI)]))
    assert _sha(answers) == "c980851de58dcd7c3e059b468b7a3621327c5e6d975c051d191337354e0acbc9"
    assert fingerprint(sk) == {
        "n": 250_000,
        "N": 2 ** 32,
        "states": [3876, 1528, 639, 293, 127, 40, 6, 0],
        "levels": [
            "6caf6331b1e456bc379300e42b023435d2993c13dbcd1e2611f50bd4e8846bdb",
            "b12ba72a3b51c118d362fde8ce9d850a6c7378972a6751349c259ecab09acd19",
            "293d87fb4a414837238f6fed15f8e7437f0c5fb18075cbbadb132ee23e789d00",
            "ab741bd7f6c411c4669efa1de0953e7cc27cf3ca8761f8978e0aecaa8ae971ed",
            "dd70e3a90e46a2f5aac671539994c66932b1220b85dd924fff16364484f9c55f",
            "d8f755f9e1585458cd4ec1a98fa2afbb42bac18116871463edf482efe020cfde",
            "1ed89f3c7452bc2416447a346011ac8dd71a4054d6330cccd616e4ea6654b5f3",
            "466ba3cd7940ef3cae8d278fba939710f6c699e7dfac1c274e0ad88bf3cfe5f2",
        ],
        "quantiles": "461a8d27b2b0215df1396d56f1ec62594528e8e9585061441f6e88fbbfc23678",
    }


def test_one_million_in_one_update():
    sk = ReqSketch(64, seed=13).update(stream_array("uniform", 1_000_000, seed=14))
    assert fingerprint(sk) == {
        "n": 1_000_000,
        "N": 2 ** 36,
        "states": [7779, 3078, 1316, 603, 276, 120, 33, 0],
        "levels": [
            "6a9119a583b1c5275e0ab5b1f61a42272ed9b78a076f1e9176f721623bebac4f",
            "e46d585266641559cd7a4797967d7c218828e11ef41f048f65549a16518acc43",
            "7298dc78584d7f2af2829584d55fc599dd9b7856a2b97e1e4b3f682a80f4a912",
            "b606d3766a4e36e45ca391c346bcedf02da40476999773c5ce651e317808bd47",
            "183ac218e3fe3ef4c1d9a7f4bf477186af4ab959bcba9134759a2257e62c7084",
            "409a2dbe4104577ab1d324b917e7c9699ae929361bc21de3bf9e90ea6929e454",
            "99ba18909ef6cb646cf0a5016df2fed8d33ed8fc11054fb44194d7f2dbad8dc5",
            "5f5a22149534afbb76606fe1e8e112a3ae94a737ed7ea5f2892f72ae4108e9f7",
        ],
        "quantiles": "1a17292c4c6a98f68578d619dceb6c504f0eed987969949776787eb423cc6911",
    }


def test_sixteen_way_balanced_merge():
    """16 partials in three parameter epochs (N = 256, 2^16, 2^32)."""
    parts = [
        ReqSketch(32, seed=100 + i).update(
            stream_array("lognormal", 40 if i == 5 else 500 * (i + 1) ** 2, seed=200 + i)
        )
        for i in range(16)
    ]
    assert sorted({p.N for p in parts}) == [256, 2 ** 16, 2 ** 32]
    assert fingerprint(merge_balanced(parts)) == {
        "n": 730_040,
        "N": 2 ** 32,
        "states": [2748, 2048, 670, 440, 128, 28, 5, 2, 0],
        "levels": [
            "45df6bcf307a667add4598ee0c99017962bd87bed2afdcce78cd38934d0979d2",
            "c67ff89b368282101e74e4ce66c3a913ece81ff6fe346ccf61ef792818d0769a",
            "6b78573451902d92f77382c74293424dc82db036a3390c315e29e8900e690315",
            "437c799329a68e6409168eb1ad58b1b09d2951d902c1933b86364110cea26e2f",
            "bb437fe9ea238ca35cad95ac53cbd434e03c1ce3e571e32be1bfcd01fc7932ee",
            "19df022c4aa798c110e89d379bffaf0bf222f0eb89eba7a0d94991aa2a7b6e87",
            "2cbb706ce9dbe1c53f402e13b3a18856a10e0726542266cedda44d12e4815e8d",
            "b3c1699bcdabeb6ce656bc46ce8a09782cf461acf95cbe0e1507b8b156d43e52",
            "0a83b73a75c1eae51c9a14cbba550110805e68d9bdcccd0105d768273d385667",
        ],
        "quantiles": "c8271aa7b6ca0045f8d9085278202edc064c0cab52b9adc1f97d3b10b6ccbe12",
    }

