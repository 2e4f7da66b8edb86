"""The layered retrieval scheme with cache-aware redundancy removal.

Query structure: each database serves p1 slots, organised in layers. A slot
in layer k downloads the field sum of one precoded symbol from each of k
distinct messages, and every subset of size k gets the same number of slots
per database, so the slot structure itself carries no information about the
desired index.

That structure is decided once: the cached :func:`download_plan` builds one
:class:`DownloadPlan` per (params, theta), and with it the one public
:class:`LayeredShape` of its queries. Every :class:`DatabaseQuery` carries
that shape and its private rows; the client writes queries by it, a server
derives the same shape from a session's PARAMS and reads each QUERY against
it, and :func:`answer_raw` reads the member index and slot starts it holds.

The desired message is precoded with a private uniform full-rank mixer and
every one of its L symbols is consumed exactly once across all databases.
Each undesired message is precoded per "context" (the set of undesired
messages it is summed with): the member streams of a context share one
public MDS generator, so their sums are codewords of the same code. Any
colluding set of T databases sees exactly one full information set of each
context code, which makes its view an invertible transform of uniformly
mixed rows, indistinguishable across desired indices.

The contexts of an undesired message read u = L*T/N rows of its mixer, and
the first u rows of a uniform invertible L x L matrix are a uniform
full-rank u x L block. So a session draws one L x L mixer, for the desired
message, and one u x L block for each other message, and its queries have
the distribution they would have if every message had a whole mixer.

Redundancy removal: with M cached messages the client already knows the p2
slots built only from cached messages, so each database re-encodes its p1
slot values with a public systematic (2*p1-p2, p1) MDS code and ships only
the p1-p2 parity symbols. The client completes the codeword with its p2
known values and inverts.

Decoding peels contexts independently: the slots that avoid the desired
message supply one full information set per context, the reconstructed
codeword is evaluated at the coordinates used inside desired-bearing slots
and subtracted, and the mixer inverse recovers the message.

Contexts of one size share one code shape (length, dim), and a point has
few shapes (one at (6,2,2,1), where all 31 contexts are 4 x 2). Query
assembly, the cached slots and the peel therefore run one batched product
per shape, not per context or per (context, member) pair, through index
tables built once per (params, theta), or per cached set: which mixer rows
feed which product, which product row fills which query row, and which
slots a context reads and writes back. Every step takes leading session
axes, so the audits decode a batch of sessions with the retrieval's code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import linalg, wire
from .capacity import SchemeParams, capacity_tpir_psi, count_profile, layer_instances
from .coding import (
    information_set_inverse,
    make_mds,
    make_systematic_mds,
    sample_full_rank_factored,
)
from .errors import (
    CorruptionError,
    FieldTooSmallError,
    ParameterError,
    ProtocolError,
)
from .field import GF, standard_field
from .store import MessageStore, check_side
from .wire import DatabaseQuery, LayeredShape


@dataclass(frozen=True)
class QuerySlot:
    """One downloaded symbol: a k-wise sum identified by (db, subset, instance)."""

    db: int                        # 0-based database index
    layer: int                     # k = |subset|
    subset: tuple[int, ...]        # 1-based message indices, ascending
    instance: int                  # 0-based instance within (db, subset)
    desired_offset: int | None     # position in the desired precoded stream
    context: int | None            # index into the plan's context table
    coord: int | None              # coordinate of the context group codeword


@dataclass(frozen=True)
class ContextGroup:
    """An undesired-stream MDS group shared by the member messages."""

    members: tuple[int, ...]           # 1-based message indices, ascending
    length: int                        # e: codeword coordinates
    dim: int                           # f: information symbols per member
    block_rows: dict[int, tuple[int, int]]  # member -> span of its rows in the pool


@dataclass(frozen=True)
class _ShapeGroup:
    """The contexts that share one code shape, and their index tables.

    Query rows: pair g, context ``contexts[pair_ctx[g]]`` and its member
    ``member[g]``, is ``gen @ pool[src[g]]``, with ``pool`` the session's
    mixer pool (see :class:`PrecodingState`). Decode peel: context
    ``contexts[c]`` reads codeword coordinates ``free_coord[c]`` at the flat
    (db, slot) ``free_flat[c]``, and slot ``bear_flat[j]`` minus coordinate
    ``bear_coord[j]`` of context ``bear_ctx[j]``'s codeword is desired
    symbol ``bear_off[j]``.
    """

    length: int
    dim: int
    contexts: tuple[int, ...]
    src: np.ndarray         # (G, dim)
    member: np.ndarray      # (G,)
    pair_ctx: np.ndarray    # (G,): position in ``contexts``
    free_flat: np.ndarray   # (C, dim)
    free_coord: np.ndarray  # (C, dim)
    bear_flat: np.ndarray
    bear_ctx: np.ndarray    # position in ``contexts``
    bear_coord: np.ndarray
    bear_off: np.ndarray


class DownloadPlan:
    """The one layered structure per (params, theta), from
    :func:`download_plan`; it holds no randomness.

    ``shape`` is its queries' public layout, the same for every theta. The
    rest depends on theta and is client-private: the slot table
    ``slots_per_db``, the ``contexts``, and the index arrays of query
    assembly and the peel: ``groups``, one :class:`_ShapeGroup` per (length,
    dim); ``db_rows``, per database its rows of the query table; ``singles``,
    the (flat slot, desired offset) of desired-only slots; and ``peel``,
    built on first use. ``block`` is u = L*T/N, the rows of each undesired
    message's block in the mixer pool.
    """

    def __init__(self, params: SchemeParams, theta: int, field: GF):
        K, N = params.K, params.N
        profile = count_profile(params)
        self.params = params
        self.theta = theta
        self.field = field
        self.profile = profile

        others = [i for i in range(1, K + 1) if i != theta]
        self.block = profile.L * params.T // N
        contexts: list[ContextGroup] = []
        ctx_index: dict[tuple[int, ...], int] = {}
        # the pool holds the L desired mixer rows, then each other message's
        # block in index order
        block_cursor = {i: profile.L + j * self.block for j, i in enumerate(others)}
        for size, dim, length in _context_sizes(params):
            for members in combinations(others, size):
                spans = {}
                for i in members:
                    spans[i] = (block_cursor[i], block_cursor[i] + dim)
                    block_cursor[i] += dim
                ctx_index[members] = len(contexts)
                contexts.append(ContextGroup(members=members, length=length,
                                             dim=dim, block_rows=spans))
        self.contexts = tuple(contexts)

        desired_cursor = 0
        coord_cursor = [0] * len(contexts)
        slots_per_db: list[tuple[QuerySlot, ...]] = []
        for db in range(N):
            slots: list[QuerySlot] = []
            for k in range(1, K + 1):
                instances = layer_instances(params, k)
                for subset in combinations(range(1, K + 1), k):
                    for j in range(instances):
                        if theta in subset:
                            offset = desired_cursor
                            desired_cursor += 1
                            members = tuple(i for i in subset if i != theta)
                        else:
                            offset = None
                            members = subset
                        if members:
                            ci = ctx_index[members]
                            coord = coord_cursor[ci]
                            coord_cursor[ci] += 1
                        else:
                            ci = coord = None
                        slots.append(QuerySlot(db=db, layer=k, subset=subset,
                                               instance=j, desired_offset=offset,
                                               context=ci, coord=coord))
            slots_per_db.append(tuple(slots))
        self.slots_per_db = tuple(slots_per_db)
        # every database gets the same slot table; only the rows differ
        self.shape = LayeredShape(field.w, K, profile.L,
                                  tuple(s.subset for s in slots_per_db[0]), profile.p2)

        # construction-time invariants: counts must match the closed forms
        assert desired_cursor == profile.L
        assert all(len(s) == profile.p1 for s in self.slots_per_db)
        for ci, ctx in enumerate(contexts):
            assert coord_cursor[ci] == ctx.length
        for j, i in enumerate(others):  # a block holds all the rows its contexts read
            assert block_cursor[i] == profile.L + (j + 1) * self.block
        for slots in self.slots_per_db:
            assert sum(1 for s in slots if theta in s.subset) == profile.m
            assert tuple(s.subset for s in slots) == self.shape.slot_members

        self._build_gather()

    def _build_gather(self) -> None:
        self.groups: list[_ShapeGroup] = []
        p1, length = self.profile.p1, self.profile.L
        free: list[list[tuple[int, int]]] = [[] for _ in self.contexts]
        bear: list[list[tuple[int, int, int]]] = [[] for _ in self.contexts]
        singles: list[tuple[int, int]] = []
        for db, slots in enumerate(self.slots_per_db):
            for idx, slot in enumerate(slots):
                flat = db * p1 + idx
                if slot.context is None:
                    singles.append((flat, slot.desired_offset))
                elif slot.desired_offset is None:
                    free[slot.context].append((flat, slot.coord))
                else:
                    bear[slot.context].append((flat, slot.coord, slot.desired_offset))
        # query table rows: the L desired mixer rows, then each shape group's
        # products, pair by pair, each pair's codeword coordinates in order;
        # a pair's ``src`` rows are its member's span of the mixer pool
        shapes: dict[tuple[int, int], list[int]] = {}
        for ci, ctx in enumerate(self.contexts):
            assert len(free[ci]) == ctx.dim
            shapes.setdefault((ctx.length, ctx.dim), []).append(ci)
        table_row: dict[tuple[int, int], int] = {}  # (context, member) -> coordinate 0
        base = length
        for (e, f), cis in shapes.items():
            src, pairs, bears = [], [], []
            for c, ci in enumerate(cis):
                ctx = self.contexts[ci]
                for i in ctx.members:
                    lo, hi = ctx.block_rows[i]
                    table_row[(ci, i)] = base + len(src) * e
                    src.append(range(lo, hi))
                    pairs.append((i, c))
                bears += [(fl, c, co, off) for fl, co, off in bear[ci]]
            base += len(src) * e
            member, pair_ctx = np.array(pairs, dtype=np.int64).T
            free_flat, free_coord = np.array([free[ci] for ci in cis]).transpose(2, 0, 1)
            bf, bc, bco, bo = np.array(bears, dtype=np.int64).reshape(-1, 4).T
            self.groups.append(_ShapeGroup(
                length=e, dim=f, contexts=tuple(cis), src=np.array(src, dtype=np.int64),
                member=member, pair_ctx=pair_ctx, free_flat=free_flat, free_coord=free_coord,
                bear_flat=bf, bear_ctx=bc, bear_coord=bco, bear_off=bo))
        self.db_rows = [np.array([slot.desired_offset if i == self.theta
                                  else table_row[(slot.context, i)] + slot.coord
                                  for slot in slots for i in slot.subset], dtype=np.int64)
                        for slots in self.slots_per_db]
        self.singles = tuple(np.array(singles, dtype=np.int64).reshape(-1, 2).T)

    @cached_property
    def peel(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per shape group: each context's generator rows at its free
        coordinates and their inverses, ``(free_gen, inverses)``, both (C, dim, dim)."""
        gens = [make_mds(grp.length, grp.dim, self.field) for grp in self.groups]
        return tuple((gen.entries[grp.free_coord],
                      np.stack([information_set_inverse(gen, co) for co in grp.free_coord]))
                     for grp, gen in zip(self.groups, gens))


def _context_sizes(params: SchemeParams):
    """(size, dim, length) of the context code for every group size that has
    one: dim slots per context avoid the desired message, length - dim carry it."""
    for size in range(1, params.K):
        dim = params.N * layer_instances(params, size)
        if dim:
            yield size, dim, dim + params.N * layer_instances(params, size + 1)


def minimum_field_width(params: SchemeParams) -> int:
    """Smallest protocol width hosting every code the scheme instantiates:
    the longest context codeword and the compression code."""
    profile = count_profile(params)
    longest = max((length for _, _, length in _context_sizes(params)), default=0)
    required = max(longest, 2 * profile.p1 - profile.p2) + 1
    for w in (4, 8, 16):
        if (1 << w) >= required:
            return w
    raise FieldTooSmallError(
        f"{params.label()} needs a field with at least {required} elements "
        f"({required.bit_length()} bits); the largest protocol field is GF(2^16)",
        min_width=required.bit_length(),
    )


@dataclass(frozen=True)
class PrecodingState:
    """Everything the client must keep to decode: the private mixer pool and
    the LU factors of the desired mixer.

    Per session the pool holds L + (K-1)*u rows (u = ``DownloadPlan.block``):
    the desired message's full-rank L x L mixer, then the full-rank u x L
    block of each other message in index order, which is every mixer row a
    query reads. The factors come from the rank check that accepted the
    desired mixer, so decoding inverts it by triangular substitution, with
    no elimination. They determine the desired mixer and are as private as
    the pool. The public generators are not part of it: they are fixed by
    their dimensions and come from the caches of :func:`make_mds` and
    :func:`make_systematic_mds`.
    """

    pool: np.ndarray                        # (..., L + (K-1)*u, L)
    desired_factors: tuple[np.ndarray, np.ndarray]  # (lu, perm) of the desired mixer


@lru_cache(maxsize=None)
def download_plan(params: SchemeParams, theta: int) -> DownloadPlan:
    """The plan of (params, theta), built once: its slot table, contexts,
    index tables and public query shape.

    ``theta`` is the 1-based desired index. The cached set plays no role
    here: plans are a function of (params, theta, randomness) only, which is
    what makes the cached set invisible on the wire.
    """
    if not params.constructible:
        raise ParameterError(
            f"{params.label()}: the layered scheme needs T < N (or M = K-1)"
        )
    if not 1 <= theta <= params.K:
        raise ParameterError(f"desired index {theta} outside 1..{params.K}")
    w_needed = minimum_field_width(params)
    if params.w is not None and params.w < w_needed:
        raise FieldTooSmallError(
            f"width {params.w} too small for {params.label()}; need {w_needed}",
            min_width=w_needed,
        )
    return DownloadPlan(params, theta, standard_field(params.w or w_needed))


def build_plan(params: SchemeParams, theta: int, rng) -> tuple[DownloadPlan, PrecodingState]:
    """The :func:`download_plan` and the private precoding state drawn from
    ``rng``, a Generator or seed, or from each Generator of a list, one
    session per source on a leading axis.

    One :func:`sample_full_rank_factored` batch: each source draws an L x L
    mixer, then K - 1 u x L blocks, whatever theta is; the mixer goes to the
    desired message and the blocks to the others in index order.
    """
    plan = download_plan(params, theta)
    batch = isinstance(rng, list)
    length = plan.profile.L
    mats, lu, perm, blocks = sample_full_rank_factored(
        length, plan.field, rng if batch else [np.random.default_rng(rng)],
        params.K - 1, plan.block)
    pool = np.concatenate([mats, blocks.reshape(len(mats), -1, length)], axis=1)
    if not batch:
        pool, lu, perm = pool[0], lu[0], perm[0]
    for arr in (pool, lu, perm):
        arr.flags.writeable = False
    return plan, PrecodingState(pool=pool, desired_factors=(lu, perm))


def database_queries(plan: DownloadPlan, pool: np.ndarray) -> list[DatabaseQuery]:
    """The N public wire queries for a mixer pool shaped (..., L + (K-1)*u, L).

    Leading axes are sessions: each query's rows are shaped (..., rows, L),
    so a batch of sessions is resolved by the same products as one.

    A row of an undesired member is a row of its context's public generator
    times that member's span of its block. All (context, member) pairs
    whose contexts share a code shape are one product, and each database's
    rows are one gather from the desired mixer's rows and those products,
    by index tables built once per (params, theta).
    """
    field, length = plan.field, plan.profile.L
    lead = pool.shape[:-2]
    parts = [pool[..., :length, :]]
    for grp in plan.groups:
        gen = make_mds(grp.length, grp.dim, field).entries
        coef = linalg.matmul(field, gen, pool[..., grp.src, :])  # (..., G, e, L)
        parts.append(coef.reshape(lead + (-1, length)))
    table = np.concatenate(parts, axis=-2)
    queries = []
    for db_rows in plan.db_rows:
        rows = table[..., db_rows, :]
        rows.flags.writeable = False
        queries.append(DatabaseQuery(shape=plan.shape, compress=plan.params.M >= 1, rows=rows))
    return queries


def answer_raw(query: DatabaseQuery, store: MessageStore) -> np.ndarray:
    """The database side: evaluate each slot's linear combination. A store
    with leading session axes (..., K, L) answers rows (..., R, L) at once.

    The query is taken as it is: a server reads every QUERY against its
    session's shape, which PARAMS checked against the store."""
    shape = query.shape
    vecs = store.messages[..., shape.members, :]
    terms = np.bitwise_xor.reduce(store.field.mul(query.rows, vecs), axis=-1)
    return np.bitwise_xor.reduceat(terms, shape.starts, axis=-1)


def compress(raw: np.ndarray, field: GF, p1: int, p2: int) -> np.ndarray:
    """Redundancy removal: the p1 - p2 parity symbols of the public
    systematic (2*p1 - p2, p1) code applied to the raw slot values (last axis)."""
    raw = np.asarray(raw, dtype=field.dtype)
    if raw.shape[-1] != p1:
        raise ParameterError(f"raw answer has {raw.shape[-1]} symbols, expected {p1}")
    gen = make_systematic_mds(2 * p1 - p2, p1, field)
    return linalg.matvec(field, gen.entries[: p1 - p2, :], raw)


def answer(query: DatabaseQuery, store: MessageStore) -> tuple[int, np.ndarray]:
    """One database's reply, as (form byte, symbols): the raw slot values
    (``FORM_RAW``), or their parity (``FORM_COMPRESSED``) when the query
    asks for it and the cache covers p2 > 0 slots."""
    raw, shape = answer_raw(query, store), query.shape
    if query.compress and shape.p2 > 0:
        return wire.FORM_COMPRESSED, compress(raw, store.field, len(shape.slot_members),
                                              shape.p2)
    return wire.FORM_RAW, raw


@lru_cache(maxsize=256)
def _decode_tables(params: SchemeParams, theta: int, cached: tuple[int, ...]):
    """``(slots, erasure, tables)`` for a sorted cached set: the p2 slots
    built only from cached messages, the same in every database; the inverse
    that completes compressed answers with them; and per shape group the
    cached pairs' ``(src, side_row, starts, touched)``: their mixer rows,
    their member's row in the stacked cache, where each touched context's
    run of pairs starts, and the contexts with a cached member."""
    plan = download_plan(params, theta)
    p1, p2 = plan.profile.p1, plan.profile.p2
    slots = np.array([j for j, members in enumerate(plan.shape.slot_members)
                      if set(members) <= set(cached)], dtype=np.int64)
    # codeword rows: the p1 - p2 shipped parity symbols, then the p1 slots
    erasure = information_set_inverse(make_systematic_mds(2 * p1 - p2, p1, plan.field),
                                      np.r_[:p1 - p2, p1 - p2 + slots]) if p2 else None
    tables = []
    for grp in plan.groups:
        pairs = np.flatnonzero(np.isin(grp.member, cached))
        touched, starts = np.unique(grp.pair_ctx[pairs], return_index=True)
        tables.append((grp.src[pairs], np.searchsorted(cached, grp.member[pairs]), starts, touched))
    return slots, erasure, tables


def _from_cache(plan: DownloadPlan, state: PrecodingState, side):
    """``(slots, erasure, parts, known)``: the known slots and the erasure
    inverse of :func:`_decode_tables`; per shape each context's cached part
    (..., C, dim), the sum over its cached members of their mixer rows
    applied to their messages, by one product of the cached pairs; and the
    known slot values (..., N, p2), which one more product gives as the fully
    cached contexts' codewords at their free coordinates. The cache is taken
    as :meth:`LayeredProtocol.prepare` checked it, before any query left."""
    field, (n, p1) = plan.field, (plan.params.N, plan.profile.p1)
    lead = state.pool.shape[:-2]
    cached = tuple(sorted(side))
    slots, erasure, tables = _decode_tables(plan.params, plan.theta, cached)
    messages = np.stack([side[i] for i in cached], axis=-2) if cached else None
    free = np.zeros(lead + (n * p1,), dtype=field.dtype)
    parts = []
    groups = zip(plan.groups, tables, plan.peel)
    for grp, (src, side_row, starts, touched), (free_gen, _) in groups:
        parts.append(np.zeros(lead + (len(grp.contexts), grp.dim), dtype=field.dtype))
        if len(src):
            terms = linalg.matvec(field, state.pool[..., src, :], messages[..., side_row, :])
            parts[-1][..., touched, :] = np.bitwise_xor.reduceat(terms, starts, axis=-2)
            free[..., grp.free_flat] = linalg.matvec(field, free_gen, parts[-1])
    return slots, erasure, parts, free[..., np.arange(n)[:, None] * p1 + slots]


def known_slots(plan: DownloadPlan, state: PrecodingState, side) -> tuple[np.ndarray, np.ndarray]:
    """``(slots, values)``: the p2 slots the cache alone determines, the
    same in every database, and their values shaped (..., N, p2)."""
    slots, _, _, known = _from_cache(plan, state, side)
    return slots.copy(), known  # the slots are cached


def decode_streams(form: int, answers: np.ndarray, plan: DownloadPlan, state: PrecodingState,
                   side) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Everything decoding reconstructs before the final mixer solve:
    ``(desired, infos, parts)``, the desired precoded stream and, per
    context, its information vector (the sum over members of each member's
    mixer rows applied to its message) and that sum over its cached members
    alone. Leading axes of the pool and the cache are sessions, and so are
    the middle axes of the ``answers``, stacked (N, ..., count) as
    :meth:`LayeredProtocol.answer` and a retrieval give them, all of answer
    ``form`` ``FORM_RAW`` or ``FORM_COMPRESSED``.

    Compressed answers are completed with the known slot values, at the
    same places in every database, and erasure-decoded by one product for
    all databases and sessions (refused if no slot is known); raw answers
    are cross-checked against them. One product per context shape then
    gives its information vectors, one more their codewords, and a scatter
    writes every desired-bearing slot back. The cache is read only here,
    after the queries have left, so query timing depends on (params, theta).
    """
    params, field, profile = plan.params, plan.field, plan.profile
    lead = state.pool.shape[:-2]
    slots, erasure, parts, known = _from_cache(plan, state, side)
    if form not in (wire.FORM_RAW, wire.FORM_COMPRESSED):
        raise ProtocolError(f"layered answers have no form {form:#x}")
    compressed = form == wire.FORM_COMPRESSED
    if compressed and erasure is None:
        raise ProtocolError("compressed answers need cached slots; this cache covers none")
    want = (params.N,) + lead + (profile.p1 - profile.p2 if compressed else profile.p1,)
    if np.shape(answers) != want:
        raise ProtocolError(f"answers are shaped {np.shape(answers)}, not {want}")
    # (..., N, width): a view of the stacked answers
    raw = np.moveaxis(answers, 0, -2)
    if compressed:
        raw = linalg.matvec(field, erasure, np.concatenate([raw, known], axis=-1))
    elif (raw[..., slots] != known).any():
        db, j = np.argwhere(raw[..., slots] != known)[0][-2:]
        raise CorruptionError(f"database {db} slot {slots[j]} disagrees with the cached value")

    flat = raw.reshape(lead + (-1,))
    desired = np.zeros(lead + (profile.L,), dtype=field.dtype)
    desired[..., plan.singles[1]] = flat[..., plan.singles[0]]
    infos, cached_parts = [None] * len(plan.contexts), [None] * len(plan.contexts)
    for grp, (_, inverses), part in zip(plan.groups, plan.peel, parts):
        gen = make_mds(grp.length, grp.dim, field)
        info = linalg.matvec(field, inverses, flat[..., grp.free_flat])  # (..., C, dim)
        codewords = linalg.matvec(field, gen.entries, info)            # (..., C, e)
        desired[..., grp.bear_off] = (flat[..., grp.bear_flat]
                                      ^ codewords[..., grp.bear_ctx, grp.bear_coord])
        for c, ci in enumerate(grp.contexts):
            infos[ci], cached_parts[ci] = info[..., c, :], part[..., c, :]
    return desired, infos, cached_parts


def decode(form: int, answers: np.ndarray, plan: DownloadPlan, state: PrecodingState,
           side) -> np.ndarray:
    """Recover the desired message exactly from the N answers of each
    session: :func:`decode_streams`, then the desired mixer's inverse.

    That final step is the only one that inverts a private matrix. It is a
    substitution against the LU factors that ``build_plan`` kept from the
    mixer rank check, one session at a time, so decoding runs no elimination.
    """
    desired, _, _ = decode_streams(form, answers, plan, state, side)
    length = plan.profile.L
    lu, perm = state.desired_factors
    solved = [linalg.lu_solve(plan.field, *args) for args in zip(
        lu.reshape(-1, length, length), perm.reshape(-1, length), desired.reshape(-1, length))]
    return np.reshape(solved, desired.shape)


class LayeredProtocol:
    """The layered scheme as a retrieval runs it, over a leading session axis:
    N databases asked for ``count`` symbols each in answer ``form``, answers
    shaped (N, sessions, count). ``raw`` turns redundancy removal off."""

    def __init__(self, params: SchemeParams, raw: bool = False):
        if not params.constructible:
            raise ParameterError(f"{params.label()}: the layered scheme needs T < N (or M = K-1)")
        profile, compressed = count_profile(params), params.M >= 1 and not raw
        self.params, self.raw, self.endpoints = params, raw, params.N
        self.field = standard_field(params.w or minimum_field_width(params))
        self.message_length = profile.L
        self.form = wire.FORM_COMPRESSED if compressed else wire.FORM_RAW
        self.count = profile.p1 - (profile.p2 if compressed else 0)

    def prepare(self, theta: int, side) -> tuple[LayeredProtocol, dict[int, np.ndarray]]:
        """This protocol, and one session's cache checked by :func:`check_side`."""
        return self, check_side(side, self.params, theta, self.field, (self.message_length,))

    def draw(self, theta: int, rngs) -> tuple[DownloadPlan, PrecodingState]:
        """The plan and the mixer pool of one session per random source."""
        return build_plan(self.params, theta, list(rngs))

    def queries(self, state) -> list[DatabaseQuery]:
        queries = database_queries(state[0], state[1].pool)
        return [replace(q, compress=False) for q in queries] if self.raw else queries

    def payloads(self, state) -> list[dict[int, bytes]]:
        """Each session's QUERY payloads, keyed by 1-based database."""
        blocks = [wire.serialize_database_query(q) for q in self.queries(state)]
        return [{db + 1: block[j].tobytes() for db, block in enumerate(blocks)}
                for j in range(len(blocks[0]))]

    def answer(self, state, store: MessageStore, secret: bytes | None = None) -> np.ndarray:
        """Every database's answers in process, off the wire: the symbols of
        :func:`answer`, stacked (N, sessions, count), all of form ``form``."""
        return np.stack([answer(q, store)[1] for q in self.queries(state)])

    def finish(self, state, answers, side) -> np.ndarray:
        """Each session's desired message, from its answers and its cache."""
        return decode(self.form, answers, *state, side)

    @staticmethod
    def answer_query(query: DatabaseQuery, store: MessageStore, endpoint,
                     secret) -> tuple[int, np.ndarray]:
        """One database's reply to a parsed QUERY: :func:`answer`."""
        return answer(query, store)

    def capacity(self) -> Fraction:
        return capacity_tpir_psi(self.params)

    def rho(self) -> Fraction:
        return Fraction(0)

    def query_shape(self, length: int) -> LayeredShape:
        """The QUERY shape of a session on a store of messages of ``length``
        symbols, the plan's public layout (its slot count caps the code a
        query makes the server build); a ParameterError unless L = N^K, a
        FieldTooSmallError where the point's width cannot host the plan."""
        if length != self.message_length:
            raise ParameterError(f"{self.params.label()}: the layered scheme takes messages "
                                 f"of N^K = {self.message_length} symbols, not {length}")
        return download_plan(self.params, 1).shape
