"""Loader and state marshalling for the native replay pass (``_replay.c``).

The C pass replays ranges of a trace through the same per-access
pipeline as the python pass in :mod:`repro.sim.kernel` — TLBs and the
page walker, SIPT speculation, the L1, L2/LLC/DRAM, and the analytic
core — on a private copy of every structure. This module builds and
loads the library, copies the live components' state into flat numpy
arrays before a call (:class:`_Session`), and writes back only what the
call changed afterwards: the cache slots and LRU stacks whose bytes
differ from the exported copy, the TLB sets the C code records as
touched, the DRAM row buffers, the page-walk cache, the predictors, the
core's accumulators, and every counter. Python stays authoritative
between calls, so checkpoints, interval sampling, restores and the
multicore result harvest see oracle state.

**Build.** :func:`load` compiles ``_replay.c`` on first use (never at
import) with ``$CC`` (default ``cc``) and fixed flags, into a library
whose name carries the sha256 of the source, the compiler command and
the flags. The library is cached like a ``.pyc``: in this package's
``__pycache__/``, else ``$XDG_CACHE_HOME/repro/native/``. Builds run
under an ``fcntl.flock`` and publish with ``os.replace``, next to a
sha256 sidecar that is checked before every load, so concurrent
processes compile once and a damaged file is rebuilt, never loaded.
Every reason the pass cannot run raises :class:`NativeUnavailable`,
which the kernel counts as a ``native:`` decline and answers with the
python pass.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

try:
    import fcntl
except ImportError:   # no POSIX locks (Windows): the python pass runs
    fcntl = None

from ..cache.tlb import TlbHierarchy
from ..cache.walker import PageWalker
from ..mem.address import PAGE_SHIFT
from ..timing.detailed import DetailedOooCore
from ..timing.ooo import OooCore
from ..workloads.substrate import columns_for

_SOURCE = Path(__file__).with_name("_replay.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-std=c99", "-ffp-contract=off")
_PAGE_OFF_MASK = (1 << PAGE_SHIFT) - 1
#: Weights and IDB entries beyond this magnitude could overflow the
#: pass's int64 sums; such (corrupt) state runs on the python pass.
_INT_LIMIT = 1 << 56

_SPEC = {"none": 0, "naive": 1, "bypass": 2, "idb": 3, "rev": 4}

# core_t.cnt layout (the K_* enum in _replay.c)
(K_STEPS, K_INSTRUCTIONS, K_PORT_CONFLICTS, K_FAST, K_EXTRA, K_OPP_LOSS,
 K_VIA_IDB, K_IDB_HITS, K_PERC_CORRECT, K_WP_PRED, K_WP_CORRECT,
 K_WP_SECOND, K_TLB_ACCESSES, K_TLB_L1_HITS, K_TLB_L2_HITS, K_TLB_WALKS,
 K_WALKS, K_LEVELS_WALKED, K_PWC_HITS, K_MP_L2_ACCESSES, K_MP_L2_HITS,
 K_MP_LLC_ACCESSES, K_MP_LLC_HITS, K_MP_DRAM_ACCESSES,
 K_MP_WB_TO_DRAM, K_N) = range(26)

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class _Cache(ctypes.Structure):
    _fields_ = [("n_sets", _I64), ("n_ways", _I64), ("shift", _I64),
                ("mask", _I64), ("tags", _PTR), ("dirty", _PTR),
                ("stack", _PTR), ("st", _I64 * 6)]


class _Tlb(ctypes.Structure):
    _fields_ = [("n_sets", _I64), ("n_ways", _I64), ("asid", _PTR),
                ("vpn", _PTR), ("src", _PTR), ("stack", _PTR),
                ("seen", _PTR), ("touched", _PTR), ("n_touched", _I64)]


class _Dram(ctypes.Structure):
    _fields_ = [(name, _I64) for name in
                ("n_channels", "n_banks", "row_bytes", "cas", "rcd", "rp",
                 "queue")] + [("open_rows", _PTR), ("last_channel", _I64),
                              ("last_bank", _I64), ("st", _I64 * 4)]


class _Core(ctypes.Structure):
    _fields_ = (
        [(name, _I64) for name in
         ("core_kind", "spec", "way_pred", "default_fast", "has_walker",
          "hit_lat", "window", "conflict_cycles", "wp_penalty", "tl1_lat",
          "tl2_lat", "walk_lat", "level_cost", "asid", "l2_lat",
          "llc_lat", "l1_line_shift", "spec_mask", "width")]
        + [("inv_w", _F64), ("mlp", _F64), ("rob_half", _F64),
           ("n", _I64)]
        + [(name, _PTR) for name in
           ("gap", "pc", "va", "dep", "pa", "is_write", "huge", "l1",
            "l2", "llc", "dram", "t4k", "t2m", "tl2", "pwc_level",
            "pwc_prefix", "pwc_asid")]
        + [("pwc_n", _I64), ("pwc_entries", _I64), ("weights", _PTR)]
        + [(name, _I64) for name in
           ("p_n", "hlen", "theta", "wmax", "wmin")]
        + [("hb", ctypes.c_uint64), ("deltas", _PTR), ("last_page", _PTR),
           ("i_n", _I64), ("imask", _I64), ("cycles", _F64),
           ("load_stall", _F64), ("store_stall", _F64),
           ("port_busy", _I64), ("pos", _I64), ("completed", _I64),
           ("cnt", _I64 * K_N)])


#: Reasons that are failures of the build, not of the configuration;
#: ``REPRO_KERNEL_DEBUG=1`` re-raises these.
_BUILD_FAILURES = ("no-compiler", "build-failed", "load-failed",
                   "no-cache-dir")


class NativeUnavailable(Exception):
    """The native pass cannot run; ``reason`` is the ``native:`` decline."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason, detail)
        self.reason = f"native:{reason}"
        self.failure = reason in _BUILD_FAILURES

    def __str__(self) -> str:
        reason, detail = self.args
        return f"native:{reason}" + (f": {detail}" if detail else "")


# ----------------------------------------------------------------------
# build and load
# ----------------------------------------------------------------------

#: Loaded libraries (or the failure) by (file name, cache dirs), so a
#: process builds or gives up once per configuration, not per cell.
_LIBS: dict = {}


def _cache_dirs() -> tuple:
    """Where the library may be cached, in order of preference."""
    xdg = (os.environ.get("XDG_CACHE_HOME")
           or os.path.join(os.path.expanduser("~"), ".cache"))
    return (Path(__file__).with_name("__pycache__"),
            Path(xdg) / "repro" / "native")


def load():
    """The compiled pass as a ``ctypes.CDLL``, built on first use.

    Raises :class:`NativeUnavailable` (``no-compiler``,
    ``build-failed``, ``load-failed``, ``no-cache-dir``); the outcome
    is memoized per process.
    """
    try:
        compiler = shlex.split(os.environ.get("CC") or "cc")
    except ValueError as exc:
        raise NativeUnavailable("no-compiler", str(exc)) from None
    if not compiler:
        raise NativeUnavailable("no-compiler", "empty $CC")
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(
        source + "\0".join([*compiler, *_FLAGS]).encode()).hexdigest()
    name = f"_replay.{digest[:16]}.so"
    key = (name, _cache_dirs())
    lib = _LIBS.get(key)
    if lib is None:
        try:
            lib = _open(name, key[1], compiler)
        except NativeUnavailable as exc:
            lib = exc
        _LIBS[key] = lib
    if isinstance(lib, NativeUnavailable):
        raise NativeUnavailable(*lib.args)   # fresh: no traceback pile-up
    return lib


def _open(name: str, dirs: Sequence[Path], compiler: List[str]):
    if fcntl is None:
        raise NativeUnavailable("build-failed", "no fcntl file locks")
    for directory in dirs:
        lib = _try_load(directory / name)
        if lib is not None:
            return lib
    for directory in dirs:
        try:
            directory.mkdir(parents=True, exist_ok=True)
            lock = open(directory / f"{name}.lock", "a")
        except OSError:
            continue
        with lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            # Another process may have published it while we waited.
            lib = _try_load(directory / name)
            if lib is None:
                _compile(compiler, directory / name)
                lib = _try_load(directory / name)
            if lib is None:
                raise NativeUnavailable("load-failed", str(directory))
            return lib
    raise NativeUnavailable("no-cache-dir",
                            ", ".join(str(d) for d in dirs))


def _try_load(path: Path):
    """Load ``path`` if it matches its sha256 sidecar and our ABI."""
    try:
        data = path.read_bytes()
        want = Path(f"{path}.sha256").read_text().strip()
    except OSError:
        return None
    if hashlib.sha256(data).hexdigest() != want:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        lib.abi_size.restype = _I64
        lib.abi_size.argtypes = [_I64]
        sizes = [lib.abi_size(i) for i in range(5)]
        lib.replay_range.restype = None
        lib.replay_range.argtypes = [ctypes.POINTER(_Core), _I64, _I64]
        lib.replay_multicore.restype = None
        lib.replay_multicore.argtypes = [ctypes.POINTER(
            ctypes.POINTER(_Core)), _I64]
    except (OSError, AttributeError):
        return None
    if sizes != [ctypes.sizeof(_Cache), ctypes.sizeof(_Tlb),
                 ctypes.sizeof(_Dram), ctypes.sizeof(_Core), K_N]:
        return None
    return lib


def _compile(compiler: List[str], path: Path) -> None:
    """Compile into a temp file, then publish it and its sidecar."""
    if shutil.which(compiler[0]) is None:
        raise NativeUnavailable("no-compiler", compiler[0])
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.",
                               suffix=".tmp")
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [*compiler, *_FLAGS, "-o", tmp, str(_SOURCE)],
                capture_output=True, text=True, timeout=600)
        except FileNotFoundError as exc:
            raise NativeUnavailable("no-compiler", str(exc)) from None
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise NativeUnavailable("build-failed", str(exc)) from None
        if proc.returncode != 0:
            raise NativeUnavailable("build-failed",
                                    proc.stderr.strip()[-2000:])
        digest = hashlib.sha256(Path(tmp).read_bytes()).hexdigest()
        sidecar = f"{tmp}.sha256"
        Path(sidecar).write_text(digest + "\n")
        os.replace(sidecar, f"{path}.sha256")
        os.replace(tmp, path)
    finally:
        for leftover in (tmp, f"{tmp}.sha256"):
            try:
                os.unlink(leftover)
            except OSError:
                pass


# ----------------------------------------------------------------------
# per-context plan
# ----------------------------------------------------------------------

class NativePlan:
    """One context's native core: fixed configuration and columns.

    ``columns`` keeps alive the arrays ``core`` points into.
    """

    __slots__ = ("lib", "core", "columns", "exp")


def plan(ctx, spec: str) -> NativePlan:
    """Gate ``ctx`` for the native pass and bind its configuration.

    ``spec`` is the speculation variant the kernel derived. Raises
    :class:`NativeUnavailable` for what the C pass does not model: the
    detailed core, a hierarchy that keeps its live python miss path, a
    non-default walker, history longer than 63 bits, non-int
    latencies, or negative addresses. The library is loaded last, so a
    context the pass would refuse never triggers a build.
    """
    l1 = ctx.l1
    tlb = l1.tlb
    core = ctx.core
    if type(core) is DetailedOooCore:
        raise NativeUnavailable("core-det")
    exp = ctx.miss_path.kernel_export()
    if exp is None:
        raise NativeUnavailable("miss-path-live")
    walker = tlb.walker
    if walker is not None and type(walker) is not PageWalker:
        raise NativeUnavailable("walker-type")
    perc = l1.perceptron
    if perc is not None and len(perc._history) > 63:
        raise NativeUnavailable("history-too-long")
    dram = exp["dram"]
    wp = l1.way_predictor
    ints = [l1.hit_latency, tlb.l1_latency, tlb.l2_latency,
            tlb.walk_latency, exp["l2_latency"], exp["llc_latency"],
            dram.cas_cycles, dram.rcd_cycles, dram.rp_cycles,
            dram.queue_cycles, dram.row_bytes, ctx._conflict_cycles,
            ctx._conflict_window, core.width]
    if walker is not None:
        ints.append(walker.level_cost)
    if wp is not None:
        ints.append(wp.mispredict_penalty)
    if any(type(v) is not int for v in ints):
        raise NativeUnavailable("latency-type")
    columns = _columns(ctx.trace)
    if columns is None:
        raise NativeUnavailable("negative-address")
    lib = load()

    c = _Core()
    c.core_kind = 0 if type(core) is OooCore else 1
    c.spec = _SPEC[spec]
    c.way_pred = wp is not None
    c.default_fast = l1._default_fast
    c.has_walker = walker is not None
    c.hit_lat = l1.hit_latency
    c.window = ctx._conflict_window
    c.conflict_cycles = ctx._conflict_cycles
    c.wp_penalty = wp.mispredict_penalty if wp is not None else 0
    c.tl1_lat, c.tl2_lat = tlb.l1_latency, tlb.l2_latency
    c.walk_lat = tlb.walk_latency
    c.level_cost = walker.level_cost if walker is not None else 0
    c.asid = ctx._page_table.asid
    c.l2_lat, c.llc_lat = exp["l2_latency"], exp["llc_latency"]
    c.l1_line_shift = ctx._line_shift
    c.spec_mask = l1._spec_mask
    c.width = core.width
    c.inv_w = 1.0 / core.width
    c.mlp = core.mlp if type(core) is OooCore else 1.0
    c.rob_half = core._rob_cover * 0.5 if type(core) is OooCore else 0.0
    c.n = ctx._len
    for field, col in zip(("gap", "pc", "va", "dep", "pa", "is_write",
                           "huge"), columns):
        setattr(c, field, col.ctypes.data)
    if walker is not None:
        c.pwc_entries = walker.pwc_entries
    if perc is not None:
        c.p_n, c.hlen = perc.n_entries, len(perc._history)
        c.theta = perc.theta
        c.wmax, c.wmin = perc.weight_max, perc.weight_min
    idb = l1.idb
    if idb is not None:
        c.i_n, c.imask = idb.n_entries, (1 << idb.n_bits) - 1
    p = NativePlan()
    p.lib, p.core, p.columns, p.exp = lib, c, columns, exp
    return p


def _columns(trace):
    """The trace's int64/uint8 columns for the C pass, memoized.

    ``(gap, pc, va, dep, pa, is_write, huge)``; ``huge`` is the page
    table's huge flag of each access's 4 KiB page, which decides the
    L1 TLB array a miss fills. ``None`` when an address is negative
    (C and python division would disagree).
    """
    cols = columns_for(trace)
    memo = cols.kernel_memo()
    out = memo.get("native")
    if out is None:
        va = np.ascontiguousarray(trace.va, dtype=np.int64)
        pa = (cols.ppn << PAGE_SHIFT) | (va & _PAGE_OFF_MASK)
        if len(va) and (int(va.min()) < 0 or int(pa.min()) < 0):
            memo["native"] = ()
            return None
        out = memo["native"] = (
            np.ascontiguousarray(trace.inst_gap, dtype=np.int64),
            np.ascontiguousarray(trace.pc, dtype=np.int64), va,
            np.ascontiguousarray(trace.dep_dist, dtype=np.int64),
            np.ascontiguousarray(pa, dtype=np.int64),
            np.ascontiguousarray(trace.is_write, dtype=np.uint8),
            np.ascontiguousarray(cols.huge, dtype=np.uint8).reshape(-1))
    return out or None


# ----------------------------------------------------------------------
# export / import
# ----------------------------------------------------------------------

class _CacheCopy:
    """A ``SetAssociativeCache``'s flat copy and its write-back.

    The pre-call bytes are kept, so the write-back touches only the
    slots and stacks the call changed: one numpy comparison per array
    finds them, far cheaper than rewriting every touched set's python
    rows and line -> way map.
    """

    def __init__(self, cache):
        self.cache = cache
        self.tags = bytearray().join(cache._tags)
        self.dirty = bytearray().join(cache._dirty)
        self.stack = bytearray().join(cache.policy._stacks)
        self.before = (bytes(self.tags), bytes(self.dirty),
                       bytes(self.stack))
        s = self.struct = _Cache()
        s.n_sets, s.n_ways = cache.n_sets, cache.n_ways
        s.shift, s.mask = cache.line_shift, cache.index_mask
        s.tags = _addr(self.tags)
        s.dirty = _addr(self.dirty)
        s.stack = _addr(self.stack)

    def store(self) -> None:
        cache = self.cache
        s = self.struct
        stats = cache.stats
        (accesses, hits, misses, evictions, writebacks, fills) = s.st
        stats.accesses += accesses
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        stats.fills += fills
        ways = cache.n_ways
        tags0, dirty0, stack0 = self.before
        old = np.frombuffer(tags0, dtype=np.int64)
        new = np.frombuffer(self.tags, dtype=np.int64)
        slots = np.flatnonzero(old != new)
        if slots.size:
            sets = (slots // ways).tolist()
            olds = old[slots].tolist()
            wheres, tag_rows = cache._where, cache._tags
            # A line can move to another way of its set, so every
            # displaced line leaves the map before a new one enters.
            for s_idx, line in zip(sets, olds):
                if line != -1:
                    del wheres[s_idx][line]
            for s_idx, way, line in zip(sets, (slots % ways).tolist(),
                                        new[slots].tolist()):
                tag_rows[s_idx][way] = line
                if line != -1:
                    wheres[s_idx][line] = way
        new = np.frombuffer(self.dirty, dtype=np.uint8)
        slots = np.flatnonzero(np.frombuffer(dirty0, dtype=np.uint8) != new)
        dirty_rows = cache._dirty
        for s_idx, way, bit in zip((slots // ways).tolist(),
                                   (slots % ways).tolist(),
                                   new[slots].tolist()):
            dirty_rows[s_idx][way] = bit
        changed = np.flatnonzero(
            (np.frombuffer(stack0, dtype=np.uint8)
             != np.frombuffer(self.stack, dtype=np.uint8))
            .reshape(-1, ways).any(axis=1))
        stacks, stack = cache.policy._stacks, self.stack
        for s_idx in changed.tolist():
            a = s_idx * ways
            stacks[s_idx][:] = stack[a:a + ways]


class _TlbCopy:
    """A ``_TlbArray``'s flat copy; filled slots get fresh PTEs back."""

    def __init__(self, arr, huge: bool):
        self.arr, self.huge = arr, huge
        keys = [key for row in arr._tags for key in row]
        n = len(keys)
        self.asid = np.fromiter((k[0] if k is not None else 0
                                 for k in keys), dtype=np.int64, count=n)
        self.vpn = np.fromiter((k[1] if k is not None else -1
                                for k in keys), dtype=np.int64, count=n)
        self.src = np.full(n, -1, dtype=np.int64)
        self.stack = bytearray().join(arr._policy._stacks)
        self.seen = np.zeros(arr.n_sets, dtype=np.uint8)
        self.touched = np.zeros(arr.n_sets, dtype=np.int32)
        s = self.struct = _Tlb()
        s.n_sets, s.n_ways = arr.n_sets, arr.n_ways
        s.asid = self.asid.ctypes.data
        s.vpn = self.vpn.ctypes.data
        s.src = self.src.ctypes.data
        s.stack = _addr(self.stack)
        s.seen = self.seen.ctypes.data
        s.touched = self.touched.ctypes.data

    def store(self, page_table) -> None:
        n = self.struct.n_touched
        if not n:
            return
        arr = self.arr
        ways = arr.n_ways
        where = arr._where
        asids, vpns = self.asid.tolist(), self.vpn.tolist()
        srcs = self.src.tolist()
        lookup = page_table.lookup
        for s_idx in self.touched[:n].tolist():
            tags = arr._tags[s_idx]
            entries = arr._entries[s_idx]
            for key in tags:
                if key is not None:
                    del where[key]
            a = s_idx * ways
            for way in range(ways):
                vpn = vpns[a + way]
                if vpn == -1:
                    tags[way] = None
                    continue
                key = tags[way] = (asids[a + way], vpn)
                where[key] = (s_idx, way)
                src = srcs[a + way]
                if src >= 0:
                    entry = lookup(src)
                    if self.huge:
                        entry = TlbHierarchy._huge_base_entry(
                            entry, src << PAGE_SHIFT)
                    entries[way] = entry
            arr._policy._stacks[s_idx][:] = self.stack[a:a + ways]


class _DramCopy:
    def __init__(self, dram):
        self.dram = dram
        self.rows = np.array(dram._open_rows, dtype=np.int64).reshape(-1)
        s = self.struct = _Dram()
        s.n_channels, s.n_banks = dram.n_channels, dram.n_banks
        s.row_bytes = dram.row_bytes
        s.cas, s.rcd = dram.cas_cycles, dram.rcd_cycles
        s.rp, s.queue = dram.rp_cycles, dram.queue_cycles
        s.open_rows = self.rows.ctypes.data
        s.last_channel, s.last_bank = dram._last_bank

    def store(self) -> None:
        dram, s = self.dram, self.struct
        banks = dram.n_banks
        flat = self.rows.tolist()
        for channel, rows in enumerate(dram._open_rows):
            rows[:] = flat[channel * banks:(channel + 1) * banks]
        dram._last_bank = (s.last_channel, s.last_bank)
        reads, writes, row_hits, row_misses = s.st
        stats = dram.stats
        stats.reads += reads
        stats.writes += writes
        stats.row_hits += row_hits
        stats.row_misses += row_misses


def _addr(buf: bytearray) -> int:
    """Address of a bytearray's storage (kept alive by its owner)."""
    return ctypes.addressof((ctypes.c_char * max(len(buf), 1))
                            .from_buffer(buf)) if buf else 0


class _Session:
    """The exported state of one or more contexts for one C call.

    Components shared between contexts (the multicore LLC and DRAM)
    are exported once and shared by every core's struct.
    """

    def __init__(self):
        self._parts: dict = {}
        self.cores: list = []

    def _struct(self, obj, make) -> int:
        """Address of ``obj``'s exported struct, exporting it once."""
        part = self._parts.get(id(obj))
        if part is None:
            part = self._parts[id(obj)] = make(obj)
        return ctypes.addressof(part.struct)

    def add(self, ctx, p: NativePlan) -> bool:
        """Export ``ctx``'s state into ``p.core``; False if it cannot.

        Predictor state outside int64 range cannot be exported; the
        caller then replays on the python pass.
        """
        l1 = ctx.l1
        perc, idb = l1.perceptron, l1.idb
        try:
            weights = (np.array(perc._weights, dtype=np.int64)
                       if perc is not None else None)
            deltas = (np.array(idb._deltas, dtype=np.int64)
                      if idb is not None else None)
            last_page = (np.array(idb._last_page, dtype=np.int64)
                         if idb is not None else None)
        except (OverflowError, ValueError, TypeError):
            return False
        for values in (weights, deltas):
            if values is not None and values.size and int(
                    np.abs(values).max()) >= _INT_LIMIT:
                return False
        c = p.core
        exp = p.exp
        tlb = l1.tlb
        l2 = exp["l2"]
        c.l1 = self._struct(l1.cache, _CacheCopy)
        c.l2 = self._struct(l2, _CacheCopy) if l2 is not None else None
        c.llc = self._struct(exp["llc"], _CacheCopy)
        c.dram = self._struct(exp["dram"], _DramCopy)
        tlbs = (_TlbCopy(tlb._l1_4k, False), _TlbCopy(tlb._l1_2m, True),
                _TlbCopy(tlb._l2, False))
        c.t4k, c.t2m, c.tl2 = (ctypes.addressof(t.struct) for t in tlbs)
        walker = tlb.walker
        pwc = walker._pwc if walker is not None else []
        size = max(c.pwc_entries, len(pwc)) + 1
        pwc_cols = [np.zeros(size, dtype=np.int64) for _ in range(3)]
        for i, key in enumerate(pwc):
            for col, value in zip(pwc_cols, key):
                col[i] = value
        c.pwc_level, c.pwc_prefix, c.pwc_asid = (col.ctypes.data
                                                 for col in pwc_cols)
        c.pwc_n = len(pwc)
        if weights is not None:
            c.weights = weights.ctypes.data
            c.hb = sum(1 << j for j, x in enumerate(perc._history)
                       if x > 0)
        if deltas is not None:
            c.deltas = deltas.ctypes.data
            c.last_page = last_page.ctypes.data
        stats = ctx.core.stats
        c.cycles = stats.cycles
        c.load_stall = stats.load_stall_cycles
        c.store_stall = stats.store_stall_cycles
        c.port_busy = ctx._port_busy
        c.pos = ctx.position
        c.completed = ctx.completed_once
        ctypes.memset(ctypes.addressof(c.cnt), 0, ctypes.sizeof(c.cnt))
        self.cores.append((ctx, p, tlbs, pwc_cols, weights, deltas,
                           last_page))
        return True

    def store(self) -> list:
        """Write every change back; returns each core's counters."""
        for part in self._parts.values():
            part.store()
        out = []
        for ctx, p, tlbs, pwc_cols, weights, deltas, last_page in \
                self.cores:
            c = p.core
            cnt = list(c.cnt)
            page_table = ctx._page_table
            for t in tlbs:
                t.store(page_table)
            l1 = ctx.l1
            tlb = l1.tlb
            walker = tlb.walker
            if walker is not None:
                n = c.pwc_n
                walker._pwc[:] = list(zip(*(col[:n].tolist()
                                            for col in pwc_cols)))
                wstats = walker.stats
                wstats.walks += cnt[K_WALKS]
                wstats.levels_walked += cnt[K_LEVELS_WALKED]
                wstats.pwc_hits += cnt[K_PWC_HITS]
            tstats = tlb.stats
            tstats.accesses += cnt[K_TLB_ACCESSES]
            tstats.l1_hits += cnt[K_TLB_L1_HITS]
            tstats.l2_hits += cnt[K_TLB_L2_HITS]
            tstats.walks += cnt[K_TLB_WALKS]
            mstats = p.exp["stats"]
            mstats.l2_accesses += cnt[K_MP_L2_ACCESSES]
            mstats.l2_hits += cnt[K_MP_L2_HITS]
            mstats.llc_accesses += cnt[K_MP_LLC_ACCESSES]
            mstats.llc_hits += cnt[K_MP_LLC_HITS]
            mstats.dram_accesses += cnt[K_MP_DRAM_ACCESSES]
            mstats.writebacks_to_dram += cnt[K_MP_WB_TO_DRAM]
            perc = l1.perceptron
            if perc is not None:
                for row, vals in zip(perc._weights, weights.tolist()):
                    row[:] = vals
                hb = c.hb
                perc._history[:] = [1 if hb >> j & 1 else -1
                                    for j in range(len(perc._history))]
            idb = l1.idb
            if idb is not None:
                idb._deltas[:] = deltas.tolist()
                idb._last_page[:] = last_page.tolist()
            stats = ctx.core.stats
            stats.instructions += cnt[K_INSTRUCTIONS]
            stats.cycles = c.cycles
            stats.load_stall_cycles = c.load_stall
            stats.store_stall_cycles = c.store_stall
            ctx._port_busy = bool(c.port_busy)
            ctx.port_conflicts += cnt[K_PORT_CONFLICTS]
            out.append(cnt)
        return out


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------

def replay(ctx, p: NativePlan, start: int, end: int) -> Optional[list]:
    """Replay ``[start, end)`` natively; the core's counters, or None.

    ``None`` means the state could not be exported and nothing ran.
    """
    session = _Session()
    if not session.add(ctx, p):
        return None
    p.lib.replay_range(ctypes.byref(p.core), start, end)
    return session.store()[0]


def run_multicore(contexts: Sequence, plans: Sequence[NativePlan]
                  ) -> Optional[list]:
    """The whole multicore round-robin natively; counters per core.

    Leaves every context's position and completion flag where the
    oracle loop would. ``None`` (nothing ran) if a state cannot be
    exported.
    """
    session = _Session()
    for ctx, p in zip(contexts, plans):
        if not session.add(ctx, p):
            return None
    ptrs = (ctypes.POINTER(_Core) * len(plans))(
        *(ctypes.pointer(p.core) for p in plans))
    plans[0].lib.replay_multicore(ptrs, len(plans))
    counts = session.store()
    for ctx, p in zip(contexts, plans):
        ctx.position = p.core.pos
        ctx.completed_once = bool(p.core.completed)
    return counts
