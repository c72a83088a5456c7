"""Versioned byte serialization for sketches shipped through Spark.

Executors build partial sketches per partition and ship them as opaque
``bytes`` columns, to the driver or to executor-side ``treeReduce``
combiners; this module is the single choke point for the wire format so
the format can evolve without touching the dataflow code.

The payload is a pickled plain dict produced by each sketch class's
``to_dict`` (numpy arrays + scalars only — no live objects), prefixed
with a magic/version header.
"""
from __future__ import annotations

import pickle
from typing import Union

_MAGIC = b"REPROSK1"


def to_bytes(sketch) -> bytes:
    """Serialize any sketch exposing ``to_dict()``."""
    return _MAGIC + pickle.dumps(sketch.to_dict(), protocol=pickle.HIGHEST_PROTOCOL)


def from_bytes(blob: Union[bytes, bytearray]):
    """Deserialize a sketch; dispatches on the dict's ``type`` tag."""
    blob = bytes(blob)
    if not blob.startswith(_MAGIC):
        raise ValueError("not a repro sketch payload (bad magic)")
    d = pickle.loads(blob[len(_MAGIC):])
    t = d.get("type")
    if t == "req":
        from repro.core.req_sketch import ReqSketch

        return ReqSketch.from_dict(d)
    if t == "kll":
        from repro.baselines.kll import KllSketch

        return KllSketch.from_dict(d)
    raise ValueError(f"unknown sketch type tag {t!r}")
