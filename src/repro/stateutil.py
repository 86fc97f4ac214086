"""Shared helpers for component ``state_dict``/``load_state_dict``.

Every stateful simulator component (caches, TLBs, predictors, timing
models) exposes the same two-method protocol:

* ``state_dict()`` returns a **JSON-safe** dict of the component's
  mutable state — plain ints/floats/bools/strings/lists/dicts only, so
  a snapshot survives a ``json.dumps``/``loads`` round trip unchanged
  (tuples become lists; the component's loader normalizes them back).
* ``load_state_dict(state)`` restores that state into an
  already-constructed instance with the same configuration.
  Implementations mutate existing containers in place wherever other
  objects hold references to them (e.g. the TLB's pre-bound lookup
  dicts), so every pre-bound hot-path callable stays valid.

The helpers here cover the recurring cases: stats dataclasses (field
dump/restore), seeded numpy generators (bit-generator state), and —
for the large per-slot arrays of the outer cache levels — a compact
packed-integer encoding (:func:`pack_ints`/:func:`unpack_ints`).

Packing matters for checkpoint throughput, not correctness: an LLC's
tag/dirty/recency state is ~37k small integers, and serializing them
as nested JSON lists costs ~8 ms per snapshot — more than the entire
per-checkpoint budget the bench guards (≤5 % overhead at
``checkpoint_every=10000``). Packing the flat array through
``array`` → ``zlib`` → ``base64`` turns that into a few-KiB string
that ``json.dumps`` copies through in microseconds.
"""

from __future__ import annotations

import base64
import json
import zlib
from array import array
from dataclasses import fields
from typing import Any, Dict, List, Sequence

#: Typecodes in widening order, for overflow fallback.
_WIDER = {"B": "h", "b": "h", "h": "i", "i": "q"}


def canonical_json(payload: Any) -> str:
    """Canonical JSON text: sorted keys, compact separators.

    The one serialization every identity-sensitive consumer shares —
    journal cell ids, checkpoint headers and file names, warm-state
    cache keys — so the same logical payload always maps to the same
    bytes (and therefore the same CRC/digest) everywhere.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def stats_state(stats: Any) -> Dict[str, Any]:
    """A stats dataclass's counter fields as a plain JSON-safe dict."""
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def load_stats(stats: Any, state: Dict[str, Any]) -> None:
    """Restore counter fields into an existing stats dataclass.

    The object identity is preserved (callers hold references to the
    stats instance, e.g. the metrics registry), only its fields change.
    """
    for name, value in state.items():
        setattr(stats, name, value)


def pack_ints(values: Sequence[int], typecode: str = "q") -> str:
    """Encode a flat integer sequence as a compact JSON-safe string.

    Format: ``"<typecode>:<base64(zlib(array bytes))>"``. ``typecode``
    is an :mod:`array` code (``B``/``b``/``h``/``i``/``q``) — pass the
    narrowest one the values are known to fit (way indices and dirty
    bits fit a byte); out-of-range values fall back to the next wider
    code automatically, so a wrong guess costs time, never data.
    ``values`` may also be a bytes-like object with ``typecode="B"`` —
    the zero-copy path the per-way bytearray planes use.
    zlib level 1 is used: these arrays are mostly sentinel/zero runs,
    so even the fastest level shrinks them ~30x, and the encoder must
    stay cheap — it runs on every periodic checkpoint.

    The encoding is deterministic for a given input on a given
    machine; checkpoint digests are computed over the written bytes,
    so cross-version zlib differences cannot invalidate a snapshot.
    """
    if isinstance(values, (bytes, bytearray, memoryview)):
        # Pre-packed plane bytes (already in machine layout for
        # ``typecode``): compress directly, skip the array copy.
        raw = bytes(values)
    else:
        while True:
            try:
                raw = array(typecode, values).tobytes()
                break
            except OverflowError:
                typecode = _WIDER[typecode]  # KeyError on non-int garbage
    packed = base64.b64encode(zlib.compress(raw, 1)).decode("ascii")
    return f"{typecode}:{packed}"


def unpack_ints(packed: str) -> List[int]:
    """Decode a :func:`pack_ints` string back to a list of ints."""
    typecode, _, payload = packed.partition(":")
    values = array(typecode)
    values.frombytes(zlib.decompress(base64.b64decode(payload)))
    return values.tolist()


def rng_state(rng: Any) -> Dict[str, Any]:
    """A numpy ``Generator``'s bit-generator state (JSON-safe dict)."""
    return rng.bit_generator.state


def load_rng(rng: Any, state: Dict[str, Any]) -> None:
    """Restore a numpy ``Generator`` from :func:`rng_state` output."""
    rng.bit_generator.state = state
