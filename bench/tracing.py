"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only from here: the traced run replaces public functions
of the ``sidepir`` modules (and a few methods) with wrappers that open a span
around each call, and puts the originals back afterwards. The untraced run
never imports this module's hooks, so its timings carry no tracing cost.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (or None) and ``op`` the id of the retrieval or audit call the
span belongs to. A thread that opens a span with an empty stack (the client's
endpoint workers) is parented to the innermost open span of the thread that
started the operation, so waiting on workers is not counted as self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple, float] = defaultdict(float)
        self.op: int | None = None
        self._op_stack: list[int] | None = None
        self._next_op = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = None
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op])
        stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    @contextmanager
    def operation(self, name: str):
        """One measured operation: a root span whose id tags every span and
        counter recorded until it closes."""
        self.op = self._next_op
        self._next_op += 1
        self._op_stack = self._stack()
        try:
            with self.span(name):
                yield self.op
        finally:
            self.op = None
            self._op_stack = None

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[(self.op, name)] += value

    def inside(self, name: str) -> bool:
        return any(self.spans[s][NAME] == name for s in self._stack())

    # -- aggregation ---------------------------------------------------------

    def totals(self, ops) -> dict[str, dict[str, float]]:
        """Aggregates over the spans and counters of ``ops``: summed inclusive
        duration, summed self time and call count by span name, and summed
        counters. Self time is a span's duration minus the part of it that
        its child spans cover."""
        ops = set(ops)
        children: dict[int, list[list]] = defaultdict(list)
        for s in self.spans:
            if s[PARENT] is not None and s[OP] in ops:
                children[s[PARENT]].append(s)
        out = {"inclusive": defaultdict(float), "self": defaultdict(float),
               "calls": defaultdict(float), "counters": defaultdict(float)}
        for sid, s in enumerate(self.spans):
            if s[OP] not in ops or s[END] is None:
                continue
            duration = s[END] - s[START]
            out["inclusive"][s[NAME]] += duration
            out["self"][s[NAME]] += duration - _covered(s[START], s[END],
                                                        children.get(sid, ()))
            out["calls"][s[NAME]] += 1
        for (op, name), value in self.counters.items():
            if op in ops:
                out["counters"][name] += value
        return out


def _covered(start: float, end: float, kids) -> float:
    """Length of [start, end] covered by the union of the child intervals."""
    intervals = sorted((max(start, k[START]), min(end, k[END]))
                       for k in kids if k[END] is not None)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ---------------------------------------------------------------------------
# hooks


def _shape_mults_matmul(args, result) -> int:
    # (..., m, k) @ (..., k, n): one multiplication per output symbol and k
    import numpy as np
    return int(np.prod(np.shape(result))) * int(np.shape(args[1])[-1])


def _shape_mults_gauss_jordan(args, result) -> int:
    # (B, n, m): per pivot column, an n x m rank-one update plus the row scale
    import numpy as np
    b, n, m = np.shape(args[1])
    return b * min(n, m) * (n + 1) * m


# (span name, module, attribute path, counter name, counter function)
HOOKS = [
    ("client.retrieve", "sidepir.client", "retrieve", None, None),
    ("client.connect", "sidepir.client", "TcpTransport.__init__", None, None),
    ("client.request", "sidepir.client", "TcpTransport.request", None, None),
    ("server.handle_frame", "sidepir.server", "ServerCore.handle_frame", None, None),
    ("tpir_psi.build_plan", "sidepir.tpir_psi", "build_plan", None, None),
    ("tpir_psi.database_queries", "sidepir.tpir_psi", "database_queries", None, None),
    ("tpir_psi.decode", "sidepir.tpir_psi", "decode", None, None),
    ("tpir_psi.answer_raw", "sidepir.tpir_psi", "answer_raw", None, None),
    ("tpir_psi.compress", "sidepir.tpir_psi", "compress", None, None),
    ("stpir_psi.queries_from_masks", "sidepir.stpir_psi", "queries_from_masks", None, None),
    ("stpir_psi.sym_decode", "sidepir.stpir_psi", "sym_decode", None, None),
    ("stpir_psi.derive_common_randomness", "sidepir.stpir_psi",
     "derive_common_randomness", None, None),
    ("stpir_psi.sym_answer", "sidepir.stpir_psi", "sym_answer", None, None),
    ("wire.serialize_query", "sidepir.wire", "serialize_database_query", None, None),
    ("wire.serialize_query", "sidepir.wire", "serialize_sym_query", None, None),
    ("wire.parse_query", "sidepir.wire", "parse_query_payload", None, None),
    ("wire.parse_answer", "sidepir.wire", "parse_answer", None, None),
    ("wire.serialize_answer", "sidepir.wire", "serialize_answer", None, None),
    ("coding.erasure_decode", "sidepir.coding", "erasure_decode", None, None),
    ("coding.sample_full_rank", "sidepir.coding", "sample_full_rank_batched",
     "coding.full_rank_accepted", lambda args, result: len(result)),
    ("coding.sample_candidates", "sidepir.coding", "sample_candidates",
     "coding.full_rank_candidates", lambda args, result: len(result)),
    ("linalg.matmul", "sidepir.linalg", "matmul",
     "linalg.field_mults", _shape_mults_matmul),
    ("linalg.solve", "sidepir.linalg", "solve", None, None),
    ("linalg.rank_batched", "sidepir.linalg", "rank_batched", None, None),
    ("linalg.gauss_jordan", "sidepir.linalg", "_gauss_jordan",
     "linalg.field_mults", _shape_mults_gauss_jordan),
    ("audit.user_privacy", "sidepir.audit", "audit_user_privacy", None, None),
    ("audit.db_privacy", "sidepir.audit", "audit_db_privacy", None, None),
    ("audit.correctness", "sidepir.audit", "audit_correctness", None, None),
    ("audit.tv", "sidepir.audit", "tv_between_digests", None, None),
    ("audit.chi_square", "sidepir.audit", "chi_square_uniform_p", None, None),
    ("audit.view_digests", "sidepir.audit", "LayeredScheme.view_digests", None, None),
    ("audit.view_digests", "sidepir.audit", "SymmetricScheme.view_digests", None, None),
    ("audit.view_digests", "sidepir.audit", "DirectDownloadScheme.view_digests", None, None),
    ("audit.residual_session", "sidepir.audit", "LayeredScheme.residual_session", None, None),
    ("audit.residual_session", "sidepir.audit", "SymmetricScheme.residual_session", None, None),
    ("audit.run_session", "sidepir.audit", "LayeredScheme.run_session", None, None),
    ("audit.run_session", "sidepir.audit", "SymmetricScheme.run_session", None, None),
]


def _wrap(tracer: Tracer, name: str, fn, counter: str | None, measure):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if counter is not None:
            tracer.count(counter, measure(args, result))
        return result
    return traced


class Instrumentation:
    """Installs the span hooks; ``missing`` lists hooks whose target does not
    exist in this version of the package (their metrics then read 0)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self) -> "Instrumentation":
        for name, modname, path, counter, measure in HOOKS:
            module = importlib.import_module(modname)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = _wrap(self.tracer, name, original, counter, measure)
            if owner is module:
                # rebind every name the package holds for this function, so
                # `from .x import f` call sites are traced too
                for mod in [m for k, m in sys.modules.items()
                            if k == "sidepir" or k.startswith("sidepir.")]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
            else:
                self._set(owner, attr, wrapped)
        self._hook_unpack()
        return self

    def _hook_unpack(self) -> None:
        # counts the per-row unpack loop of query parsing, not every unpack
        from sidepir.field import GF

        original = GF.unpack
        tracer = self.tracer

        @functools.wraps(original)
        def unpack(field_self, data, count):
            if tracer.inside("wire.parse_query"):
                tracer.count("field.unpack_calls")
            return original(field_self, data, count)

        self._set(GF, "unpack", unpack)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
