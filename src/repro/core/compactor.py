"""The relative-compactor buffer (paper Algorithm 1 + Algorithm 4 pieces).

A relative-compactor holds up to B = 2 * k * num_sections items.  When
full, it compacts only the *largest* L items, where L = (z(C)+1) * k is
chosen by the trailing-ones schedule — the lowest-ranked half of the
buffer is never compacted, which is what makes the overall sketch's
error *relative* instead of additive.  The
compaction outputs every other item of the compacted range (even or odd
indices with equal probability); the output is fed to the next level,
where each item counts with twice the weight.

This class is also used by the merge procedure (paper Algorithm 4):

* a *scheduled* compaction may run on an over-full buffer (> B items);
  items beyond slot B are then included in the compaction automatically;
* a *special* compaction (parameter-growth time) compacts everything
  above the smallest B/2 items regardless of the schedule state.

The naive Θ(ε⁻²·log(ε²n)) baseline from the paper ("protect B/2, always
compact the entire top half") is this same class compacted with
``schedule="all"`` — the only behavioural difference is L = B/2 always.
"""
from __future__ import annotations

from typing import List

import numpy as np

from repro.core.params import CompactorParams
from repro.core.schedule import sections_to_compact

_EMPTY = np.empty(0, dtype=np.float64)
_EMPTY.flags.writeable = False


class RelativeCompactor:
    """One level's buffer with its compaction-schedule state.

    The geometry (k, B) and the schedule flavour belong to the sketch,
    which passes them to every ``compact``; a level holds only its items
    and its state, so a parameter-growth step changes nothing here.

    Invariant: the buffer is one sorted run followed by a tail of
    unsorted appends.  ``append`` is O(1) amortized and only adds to the
    tail; ``sorted_values`` merges the tail into the run with a stable
    sort (timsort, near-linear for a long run plus a short tail) and
    keeps the result as the level's only chunk.  A compaction leaves the
    sorted prefix ``kept`` behind, so the next one merges only what was
    appended since instead of sorting the whole buffer.
    """

    __slots__ = ("state", "_chunks", "_count", "_sorted")

    def __init__(self, state: int = 0) -> None:
        self.state = int(state)
        self._chunks: List[np.ndarray] = []
        self._count = 0
        # True when _chunks is empty or one read-only sorted array.
        self._sorted = True

    def __len__(self) -> int:
        return self._count

    def copy(self) -> "RelativeCompactor":
        """Same items and state, sharing the stored arrays: no method writes
        one in place (sorts and compactions build new arrays)."""
        c = RelativeCompactor(self.state)
        c._chunks = list(self._chunks)
        c._count = self._count
        c._sorted = self._sorted
        return c

    # ------------------------------------------------------------------ content

    def append(self, values: np.ndarray) -> None:
        """Add a batch of items (any order)."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        self._chunks.append(arr)
        self._count += arr.size
        self._sorted = False

    def values(self) -> np.ndarray:
        """All buffered items, in no particular order."""
        if not self._chunks:
            return _EMPTY
        if len(self._chunks) > 1:
            merged = np.concatenate(self._chunks)
            self._chunks = [merged]
        return self._chunks[0]

    def sorted_values(self) -> np.ndarray:
        """All buffered items in non-descending order (read-only, no copy).

        Sorts only if something was appended since the last call or
        compaction; otherwise returns the same array object again.
        """
        if not self._sorted:
            if len(self._chunks) > 1:
                arr = np.concatenate(self._chunks)
                arr.sort(kind="stable")
            else:  # may be the caller's array: sort a copy
                arr = np.sort(self._chunks[0], kind="stable")
            arr.flags.writeable = False
            self._chunks = [arr]
            self._sorted = True
        return self.values()

    # ------------------------------------------------------------------ compaction

    def compact(
        self,
        p: CompactorParams,
        rng: np.random.Generator,
        *,
        schedule: str = "req",
        special: bool = False,
    ) -> np.ndarray:
        """Run one compaction under the sketch's geometry ``p``; return the
        items promoted to the next level.

        Scheduled compactions (``special=False``) require a full buffer
        and compact from slot ``s = B - L`` (0-based) to the end, with
        L = (z(C)+1)*k under the "req" schedule, or L = B/2 under the
        "all" schedule.  Special compactions (Algorithm 4, parameter
        growth) compact from slot B/2 whenever more than B/2 items are
        buffered.  Both increment the schedule state.
        """
        if special:
            # Nothing to do when at most one item sits above the
            # protected half (an even range needs at least two).
            if self._count <= p.B // 2 + 1:
                return np.empty(0, dtype=np.float64)
            start = p.B // 2
        else:
            if self._count < p.B:
                raise RuntimeError(
                    f"scheduled compaction on non-full buffer ({self._count} < {p.B})"
                )
            if schedule == "all":
                n_sec = p.num_sections
            else:
                n_sec = sections_to_compact(self.state, p.num_sections)
            start = p.B - n_sec * p.k
        # Force an even compaction range so total weight is conserved
        # exactly (Observation 3's +-1 drift only arises for odd ranges;
        # the paper permits odd ranges, production implementations do
        # this same parity fix).  Moving start UP never weakens the
        # protected-prefix guarantee.
        if (self._count - start) % 2 == 1:
            start += 1
        # start >= B/2 always: n_sec <= num_sections and B = 2*k*num_sections.
        assert start >= p.B // 2, (start, p.B)

        arr = self.sorted_values()
        kept, tail = arr[:start], arr[start:]
        offset = int(rng.integers(0, 2))
        promoted = tail[offset::2].copy()
        self._chunks = [kept]
        self._count = kept.size
        self._sorted = True
        self.state += 1
        return promoted
