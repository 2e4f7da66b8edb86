"""Layered scheme: plan structure, answers, compression, decoding, privacy
invariants, and a from-scratch linear-system oracle for the decoder."""

import dataclasses
import hashlib
import inspect
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sidepir import linalg, tpir_psi
from sidepir.capacity import SchemeParams, capacity_tpir_psi, count_profile, desk_grid
from sidepir.coding import make_mds
from sidepir.errors import (
    CorruptionError,
    FieldTooSmallError,
    InvalidSideInformationError,
    ParameterError,
)
from sidepir.field import standard_field
from sidepir.store import MessageStore, random_store
from sidepir.tpir_psi import (
    answer,
    answer_raw,
    build_plan,
    compress,
    database_queries,
    decode,
    decode_streams,
    download_plan,
    known_slots,
    minimum_field_width,
)
from sidepir.wire import FORM_COMPRESSED, FORM_RAW

GOLDEN_1 = SchemeParams(3, 1, 2, 1)
GOLDEN_2 = SchemeParams(3, 2, 3, 2)


def answer_every(queries, store):
    """Each database's :func:`answer`, as ``(form, answers)``: their one form
    and their symbols stacked (N, ..., count)."""
    replies = [answer(q, store) for q in queries]
    (form,) = {form for form, _ in replies}
    return form, np.stack([symbols for _, symbols in replies])


def run_round_trip(params, theta, side_idx, plan_seed, store_seed):
    plan, state = build_plan(params, theta, plan_seed)
    store = random_store(plan.field, params.K, plan.profile.L,
                         np.random.default_rng(store_seed))
    form, answers = answer_every(database_queries(plan, state.pool), store)
    got = decode(form, answers, plan, state, store.side_information(side_idx))
    return plan, store, (form, answers), got


# ---------------------------------------------------------------------------
# plan structure


def layer_histogram(plan, db):
    hist = {}
    for slot in plan.slots_per_db[db]:
        hist[slot.layer] = hist.get(slot.layer, 0) + 1
    return hist


def test_plan_golden_1_structure():
    plan, _ = build_plan(GOLDEN_1, 1, 0)
    assert plan.field.w == 4
    for db in range(2):
        assert layer_histogram(plan, db) == {1: 3, 2: 3, 3: 1}
        slots = plan.slots_per_db[db]
        assert len(slots) == 7
        assert sum(1 for s in slots if 1 in s.subset) == 4
    dims = sorted({(c.length, c.dim) for c in plan.contexts})
    assert dims == [(4, 2)]


def test_plan_golden_2_structure():
    plan, _ = build_plan(GOLDEN_2, 1, 0)
    assert plan.field.w == 8
    for db in range(3):
        slots = plan.slots_per_db[db]
        assert len(slots) == 19
        assert layer_histogram(plan, db) == {1: 12, 2: 6, 3: 1}
        singles = [s.subset for s in slots if s.layer == 1]
        for msg in ((1,), (2,), (3,)):
            assert singles.count(msg) == 4
        pairs = [s.subset for s in slots if s.layer == 2]
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert pairs.count(pair) == 2
        assert sum(1 for s in slots if 1 in s.subset) == 9
    dims = sorted((c.length, c.dim) for c in plan.contexts)
    assert dims == [(9, 6), (18, 12), (18, 12)]
    # member streams of each context share one generator row-space; their
    # spans tile the member's 18-row block of the pool, which follows the
    # 27 desired mixer rows: a 2-collusion exposure
    for ctx in plan.contexts:
        for member, (lo, hi) in ctx.block_rows.items():
            assert hi - lo == ctx.dim
    used = {}
    for ctx in plan.contexts:
        for member, span in ctx.block_rows.items():
            used.setdefault(member, []).append(span)
    assert plan.block == 18
    others = [i for i in range(1, 4) if i != plan.theta]
    for member, spans in used.items():
        spans = sorted(spans)
        start = 27 + 18 * others.index(member)
        assert spans[0][0] == start
        assert spans[-1][1] == start + 18  # T * m rows of private mixing per message
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c


def test_plan_small_example():
    plan, _ = build_plan(SchemeParams(2, 0, 2, 1), 2, 0)
    for db in range(2):
        assert layer_histogram(plan, db) == {1: 2, 2: 1}
        assert sum(1 for s in plan.slots_per_db[db] if 2 in s.subset) == 2
    assert count_profile(SchemeParams(2, 0, 2, 1)).p1 == 3


def test_message_symmetry_within_layers():
    """Every subset of one size gets the same slot count per database."""
    for params in desk_grid():
        for theta in range(1, params.K + 1):
            plan, _ = build_plan(params, theta, 1)
            for db in range(params.N):
                per_subset = {}
                for slot in plan.slots_per_db[db]:
                    per_subset[slot.subset] = per_subset.get(slot.subset, 0) + 1
                for k in range(1, params.K + 1):
                    counts = {per_subset.get(s, 0)
                              for s in combinations(range(1, params.K + 1), k)}
                    assert len(counts) == 1


def test_slot_ordering_is_canonical():
    plan, _ = build_plan(GOLDEN_2, 2, 3)
    for slots in plan.slots_per_db:
        keys = [(s.layer, s.subset, s.instance) for s in slots]
        assert keys == sorted(keys)


def test_desired_offsets_cover_stream_exactly_once():
    for params in (GOLDEN_1, GOLDEN_2, SchemeParams(4, 2, 3, 2)):
        for theta in range(1, params.K + 1):
            plan, _ = build_plan(params, theta, 0)
            offsets = [s.desired_offset
                       for slots in plan.slots_per_db for s in slots
                       if s.desired_offset is not None]
            assert sorted(offsets) == list(range(plan.profile.L))
            per_db = [sum(1 for s in slots if theta in s.subset)
                      for slots in plan.slots_per_db]
            assert per_db == [plan.profile.m] * params.N


def test_context_coords_never_reused():
    plan, _ = build_plan(GOLDEN_2, 1, 0)
    seen = {}
    for slots in plan.slots_per_db:
        for s in slots:
            if s.context is not None:
                key = (s.context, s.coord)
                assert key not in seen
                seen[key] = s
    for ci, ctx in enumerate(plan.contexts):
        coords = {c for (c2, c) in seen if c2 == ci}
        assert coords == set(range(ctx.length))


def test_peeling_property_counts_and_decode():
    """Slots avoiding the desired message supply exactly one information set
    per context, and decoding them reproduces the full group codeword."""
    plan, state = build_plan(GOLDEN_2, 1, 5)
    store = random_store(plan.field, 3, 27, np.random.default_rng(6))
    queries = database_queries(plan, state.pool)
    raws = np.stack([answer_raw(q, store) for q in queries])
    flat = raws.reshape(-1)
    from sidepir import linalg
    free = {ci: (grp.free_flat[c], grp.free_coord[c])
            for grp in plan.groups for c, ci in enumerate(grp.contexts)}
    assert sorted(free) == list(range(len(plan.contexts)))
    for ci, ctx in enumerate(plan.contexts):
        free_flat, free_coord = free[ci]
        assert len(free_coord) == ctx.dim
        gen = make_mds(ctx.length, ctx.dim, plan.field)
        info = linalg.solve(plan.field, gen.entries[free_coord, :], flat[free_flat])
        codeword = linalg.matvec(plan.field, gen.entries, info)
        # direct stream evaluation from the store must agree coordinate-wise
        direct = np.zeros(ctx.length, dtype=plan.field.dtype)
        for i in ctx.members:
            lo, hi = ctx.block_rows[i]
            stream_info = linalg.matvec(plan.field, state.pool[lo:hi, :],
                                        store.message(i))
            direct ^= linalg.matvec(plan.field, gen.entries, stream_info)
        assert np.array_equal(codeword, direct)


def test_field_autoselection_and_too_small():
    assert minimum_field_width(GOLDEN_1) == 4
    assert minimum_field_width(GOLDEN_2) == 8
    assert minimum_field_width(SchemeParams(1, 0, 2, 1)) == 4
    with pytest.raises(FieldTooSmallError):
        build_plan(SchemeParams(3, 2, 3, 2, w=4), 1, 0)
    with pytest.raises(FieldTooSmallError) as err:
        minimum_field_width(SchemeParams(8, 0, 4, 3))
    assert err.value.min_width == 17


def test_build_plan_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        build_plan(SchemeParams(3, 1, 3, 3), 1, 0)  # T = N without full cache
    with pytest.raises(ParameterError):
        build_plan(GOLDEN_1, 4, 0)


def test_plan_takes_no_cache_argument():
    """Queries cannot depend on the cached set: only decoding-side
    operations accept it."""
    for fn in (tpir_psi.build_plan, tpir_psi.database_queries,
               tpir_psi.answer_raw, tpir_psi.compress):
        names = set(inspect.signature(fn).parameters)
        assert not names & {"side", "S", "cached", "side_information"}, fn
    assert "side" in inspect.signature(tpir_psi.known_slots).parameters
    assert "side" in inspect.signature(tpir_psi.decode).parameters


def test_plan_deterministic_for_fixed_seed():
    from sidepir import wire
    def payloads():
        plan, state = build_plan(GOLDEN_1, 2, 1234)
        return [wire.serialize_database_query(q) for q in database_queries(plan, state.pool)]
    assert payloads() == payloads()


@pytest.mark.parametrize("params", [GOLDEN_1, GOLDEN_2, SchemeParams(6, 2, 2, 1, w=16)],
                         ids=lambda p: p.label())
def test_mixer_draw_does_not_depend_on_theta(params):
    """A source draws the same L x L mixer, with the same factors, and the
    same K - 1 full-rank u x L blocks for every theta: theta only decides
    which message each of them precodes."""
    states = [build_plan(params, theta, 5)[1] for theta in range(1, params.K + 1)]
    length = count_profile(params).L
    u = length * params.T // params.N
    first = states[0]
    assert first.pool.shape == (length + (params.K - 1) * u, length)
    for state in states[1:]:
        assert np.array_equal(state.pool, first.pool)
        for a, b in zip(state.desired_factors, first.desired_factors):
            assert np.array_equal(a, b)
    blocks = first.pool[length:].reshape(params.K - 1, u, length)
    field = download_plan(params, 1).field
    assert (linalg.rank_batched(field, blocks) == u).all()
    assert linalg.rank_batched(field, first.pool[None, :length])[0] == length


@pytest.mark.parametrize("params, theta, seed, want", [
    (GOLDEN_2, 1, 0, "197b7b9a46f72d301e594e6df76ff2a46b395d5339496f1353343508e8b5da5b"),
    (SchemeParams(6, 2, 2, 1, w=16), 2, 1,
     "48eb2280128876e33461456df1a3680333f2ba4ea73d12e962761ce99321bb68"),
], ids=["3,2,3,2", "6,2,2,1,w=16"])
def test_mixer_stream_is_pinned(params, theta, seed, want):
    """A seed's mixer pool and desired factors are fixed bit for bit: the
    audit reports and transcripts of a seed all depend on them."""
    _, state = build_plan(params, theta, seed)
    arrays = (state.pool, *state.desired_factors)
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
    assert digest.hexdigest() == want


def test_queries_read_only_the_u_rows_of_each_block():
    """Over the desk grid, for every (params, theta) and every cached set of
    M messages, each mixer row that query assembly (a shape group's pairs)
    or the cached parts (``_decode_tables``) read for an undesired member
    lies in that member's own block of the pool, at an offset below
    u = L*T/N."""
    for params in desk_grid():
        for theta in range(1, params.K + 1):
            plan = download_plan(params, theta)
            others = [i for i in range(1, params.K + 1) if i != theta]
            length, u = plan.profile.L, plan.block
            assert u == length * params.T // params.N

            def within(src, members):
                start = length + u * np.array([others.index(i) for i in members], dtype=np.int64)
                return bool(((src >= start[:, None]) & (src < start[:, None] + u)).all())

            for grp in plan.groups:
                assert within(grp.src, grp.member), (params, theta)
            for cached in combinations(others, params.M):
                _, _, tables = tpir_psi._decode_tables(params, theta, cached)
                for src, side_row, _, _ in tables:
                    assert within(src, np.array(cached, dtype=np.int64)[side_row]), (params, cached)


# ---------------------------------------------------------------------------
# answers and compression


def test_answer_zero_store_is_zero():
    plan, state = build_plan(GOLDEN_1, 1, 7)
    store = MessageStore(field=plan.field,
                         messages=np.zeros((3, 8), dtype=plan.field.dtype))
    for q in database_queries(plan, state.pool):
        assert not answer_raw(q, store).any()


def test_answer_slot_structure_matches_table():
    """First database, fourth slot: the pairwise sum of the desired message
    with the next one (layer 2 starts after the three singletons)."""
    plan, state = build_plan(GOLDEN_1, 1, 8)
    slot = plan.slots_per_db[0][3]
    assert slot.subset == (1, 2)
    assert slot.desired_offset is not None and slot.coord is not None
    q = database_queries(plan, state.pool)[0]
    assert q.shape.slot_members[3] == (1, 2)
    # its answer is the dot of one desired-mixer row and one group-coded row
    store = random_store(plan.field, 3, 8, np.random.default_rng(9))
    value = int(answer_raw(q, store)[3])
    from sidepir import linalg
    desired_row = state.pool[slot.desired_offset]  # the desired mixer's rows come first
    ctx = plan.contexts[slot.context]
    gen = make_mds(ctx.length, ctx.dim, plan.field)
    lo, hi = ctx.block_rows[2]
    stream = linalg.matvec(plan.field, gen.entries,
                           linalg.matvec(plan.field, state.pool[lo:hi, :],
                                         store.message(2)))
    expect = int(linalg.matvec(plan.field, desired_row[None, :], store.message(1))[0])
    expect ^= int(stream[slot.coord])
    assert value == expect


def test_answer_matches_direct_row_oracle():
    plan, state = build_plan(SchemeParams(2, 0, 2, 1), 1, 10)
    store = random_store(plan.field, 2, 4, np.random.default_rng(11))
    f = plan.field
    for q in database_queries(plan, state.pool):
        got = answer_raw(q, store)
        pos = 0
        for sidx, members in enumerate(q.shape.slot_members):
            acc = 0
            for msg in members:
                row = q.rows[pos]
                pos += 1
                acc ^= int(np.bitwise_xor.reduce(f.mul(row, store.message(msg))))
            assert acc == int(got[sidx])


def test_compression_counts():
    plan, state = build_plan(GOLDEN_1, 1, 15)
    store = random_store(plan.field, 3, 8, np.random.default_rng(16))
    raw = answer_raw(database_queries(plan, state.pool)[0], store)
    assert len(compress(raw, plan.field, 7, 1)) == 6
    plan2, state2 = build_plan(GOLDEN_2, 1, 17)
    store2 = random_store(plan2.field, 3, 27, np.random.default_rng(18))
    raw2 = answer_raw(database_queries(plan2, state2.pool)[0], store2)
    assert len(compress(raw2, plan2.field, 19, 10)) == 9


def test_m0_ships_raw():
    plan, state = build_plan(SchemeParams(2, 0, 2, 1), 1, 19)
    store = random_store(plan.field, 2, 4, np.random.default_rng(20))
    form, answers = answer_every(database_queries(plan, state.pool), store)
    assert form == FORM_RAW
    assert answers.shape == (2, 3)


# ---------------------------------------------------------------------------
# cached positions


def test_known_slots_golden_1():
    plan, state = build_plan(GOLDEN_1, 1, 21)
    store = random_store(plan.field, 3, 8, np.random.default_rng(22))
    slots, values = known_slots(plan, state, store.side_information({3}))
    assert len(slots) == 1 and values.shape == (2, 1)
    for db in range(2):
        assert plan.slots_per_db[db][slots[0]].subset == (3,)
        raw = answer_raw(database_queries(plan, state.pool)[db], store)
        assert np.array_equal(raw[slots], values[db])


def test_known_slots_golden_2():
    plan, state = build_plan(GOLDEN_2, 1, 23)
    store = random_store(plan.field, 3, 27, np.random.default_rng(24))
    slots, values = known_slots(plan, state, store.side_information({2, 3}))
    queries = database_queries(plan, state.pool)
    assert len(slots) == 10 and values.shape == (3, 10)
    for db in range(3):
        subsets = [plan.slots_per_db[db][i].subset for i in slots]
        assert subsets.count((2,)) == 4
        assert subsets.count((3,)) == 4
        assert subsets.count((2, 3)) == 2
        raw = answer_raw(queries[db], store)
        assert np.array_equal(raw[slots], values[db])


def test_known_slots_empty_cache():
    plan, state = build_plan(SchemeParams(2, 0, 2, 1), 1, 25)
    slots, values = known_slots(plan, state, {})
    assert slots.shape == (0,) and values.shape == (2, 0)


def test_cached_desired_rejected():
    """The protocol's one cache check, which runs before any query leaves,
    refuses a cache that holds the desired message."""
    store = random_store(standard_field(4), 3, 8, np.random.default_rng(27))
    with pytest.raises(InvalidSideInformationError):
        tpir_psi.LayeredProtocol(GOLDEN_1).prepare(1, store.side_information({1}))


# ---------------------------------------------------------------------------
# decoding


def test_round_trip_golden_1():
    plan, store, (form, answers), got = run_round_trip(GOLDEN_1, 1, {3}, 28, 29)
    assert form == FORM_COMPRESSED
    assert answers.size == 12
    assert np.array_equal(got, store.message(1))
    assert Fraction(8, 12) == capacity_tpir_psi(GOLDEN_1)


def test_round_trip_golden_2():
    plan, store, (_, answers), got = run_round_trip(GOLDEN_2, 1, {2, 3}, 30, 31)
    assert answers.size == 27
    assert np.array_equal(got, store.message(1))
    assert Fraction(27, 27) == capacity_tpir_psi(GOLDEN_2)


def test_decode_against_full_system_oracle():
    """Reconstruct the desired message by row-reducing the entire
    downloads-vs-symbols linear system, written from scratch, and compare."""
    params = SchemeParams(2, 0, 2, 1)
    plan, state = build_plan(params, 2, 32)
    f = plan.field
    store = random_store(f, 2, 4, np.random.default_rng(33))
    queries = database_queries(plan, state.pool)
    form, answers = answer_every(queries, store)
    got = decode(form, answers, plan, state, {})

    rows, rhs = [], []
    for q, vec in zip(queries, answers):
        pos = 0
        for sidx, members in enumerate(q.shape.slot_members):
            row = [0] * (2 * 4)
            for msg in members:
                for j in range(4):
                    row[(msg - 1) * 4 + j] ^= int(q.rows[pos][j])
                pos += 1
            rows.append(row)
            rhs.append(int(vec[sidx]))
    # scalar-op Gauss-Jordan; free variables pinned to zero
    aug = [r + [v] for r, v in zip(rows, rhs)]
    ncols = 8
    piv_of_col = {}
    piv = 0
    for col in range(ncols):
        sel = next((r for r in range(piv, len(aug)) if aug[r][col]), None)
        if sel is None:
            continue
        aug[piv], aug[sel] = aug[sel], aug[piv]
        inv = f.inv(aug[piv][col])
        aug[piv] = [f.mul(x, inv) for x in aug[piv]]
        for r in range(len(aug)):
            if r != piv and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x ^ f.mul(factor, y) for x, y in zip(aug[r], aug[piv])]
        piv_of_col[col] = piv
        piv += 1
    particular = [0] * ncols
    for col, row in piv_of_col.items():
        particular[col] = aug[row][ncols]
    # the desired block is pinned even though the system is underdetermined
    theta_block = particular[4:8]
    assert np.array_equal(np.array(theta_block, dtype=f.dtype), got)
    assert np.array_equal(got, store.message(2))


def test_correctness_sweep_exhaustive_combos():
    """Every (theta, cache) pair on the desk grid decodes exactly, over
    twenty random plan/store draws each."""
    rng = np.random.default_rng(34)
    for params in desk_grid():
        for theta in range(1, params.K + 1):
            others = [i for i in range(1, params.K + 1) if i != theta]
            for side_idx in combinations(others, params.M):
                for plan_seed in range(2):
                    plan, state = build_plan(params, theta,
                                             (35, params.K, params.M, params.N,
                                              params.T, theta, plan_seed))
                    queries = database_queries(plan, state.pool)
                    for _ in range(10):
                        store = random_store(plan.field, params.K,
                                             plan.profile.L, rng)
                        got = decode(*answer_every(queries, store), plan, state,
                                     store.side_information(side_idx))
                        assert np.array_equal(got, store.message(theta))


def test_download_accounting_matches_capacity():
    for params in desk_grid():
        plan, state = build_plan(params, 1, 36)
        store = random_store(plan.field, params.K, plan.profile.L,
                             np.random.default_rng(37))
        _, answers = answer_every(database_queries(plan, state.pool), store)
        prof = plan.profile
        expected = params.N * (prof.p1 - prof.p2) if params.M else params.N * prof.p1
        assert answers.size == expected
        if params.M:
            assert Fraction(prof.L, answers.size) == capacity_tpir_psi(params)


def test_decode_raw_with_cache_checks_consistency():
    """Raw answers are over-determined given the cache: a wrong side file is
    caught instead of silently producing garbage."""
    plan, state = build_plan(GOLDEN_1, 1, 38)
    store = random_store(plan.field, 3, 8, np.random.default_rng(39))
    queries = [dataclasses.replace(q, compress=False)
               for q in database_queries(plan, state.pool)]
    form, answers = answer_every(queries, store)
    assert form == FORM_RAW
    good = decode(form, answers, plan, state, store.side_information({3}))
    assert np.array_equal(good, store.message(1))
    wrong = store.message(3).copy()
    wrong[0] ^= 1
    with pytest.raises(CorruptionError):
        decode(form, answers, plan, state, {3: wrong})


def test_decode_rejects_short_answer():
    plan, state = build_plan(GOLDEN_1, 1, 40)
    store = random_store(plan.field, 3, 8, np.random.default_rng(41))
    form, answers = answer_every(database_queries(plan, state.pool), store)
    from sidepir.errors import ProtocolError
    with pytest.raises(ProtocolError):
        decode(form, answers[:, :5], plan, state, store.side_information({3}))


def test_decode_refuses_compressed_answers_without_cached_slots():
    """With M = 0 no slot is known, so there is nothing to complete a
    compressed answer with: raw answers labelled compressed are refused
    instead of being decoded as parity symbols."""
    plan, state = build_plan(SchemeParams(3, 0, 2, 1), 1, 46)
    store = random_store(plan.field, 3, plan.profile.L, np.random.default_rng(47))
    form, answers = answer_every(database_queries(plan, state.pool), store)
    assert form == FORM_RAW
    from sidepir.errors import ProtocolError
    with pytest.raises(ProtocolError):
        decode(FORM_COMPRESSED, answers, plan, state, {})
    with pytest.raises(ProtocolError, match="^layered answers have no form 0x7f$"):
        decode(0x7F, answers, plan, state, {})


def test_pinned_wide_field_round_trip():
    params = SchemeParams(2, 1, 2, 1, w=16)
    plan, state = build_plan(params, 1, 44)
    assert plan.field.w == 16
    store = random_store(plan.field, 2, 4, np.random.default_rng(45))
    got = decode(*answer_every(database_queries(plan, state.pool), store), plan, state,
                 store.side_information({2}))
    assert np.array_equal(got, store.message(1))


def test_t_equals_n_with_full_cache():
    params = SchemeParams(3, 2, 2, 2)
    plan, state = build_plan(params, 3, 42)
    store = random_store(plan.field, 3, plan.profile.L, np.random.default_rng(43))
    form, answers = answer_every(database_queries(plan, state.pool), store)
    got = decode(form, answers, plan, state, store.side_information({1, 2}))
    assert np.array_equal(got, store.message(3))
    assert Fraction(plan.profile.L, answers.size) == 1


def test_warm_retrieval_runs_one_elimination(monkeypatch):
    """Once (theta, cached set) has been seen, a retrieval eliminates only
    once: the rank check of the 64 x 64 mixer and the five 32 x 64 blocks,
    in one call. Decoding inverts the desired mixer by substitution against
    the factors that check kept, and every other system is public and its
    inverse is cached."""
    params = SchemeParams(6, 2, 2, 1, w=16)
    store = random_store(standard_field(16), 6, count_profile(params).L,
                         np.random.default_rng(41))
    calls = []
    original = linalg.lu_batched

    def counting(field, mats, *shape):
        calls.append((np.shape(mats),) + shape)
        return original(field, mats, *shape)

    monkeypatch.setattr(linalg, "lu_batched", counting)
    for theta, cached in ((1, (2, 3)), (4, (1, 6)), (6, (2, 5))):
        side = store.side_information(cached)
        for seed in (7, 8):
            calls.clear()
            plan, state = build_plan(params, theta, seed)
            got = decode(*answer_every(database_queries(plan, state.pool), store),
                         plan, state, side)
            assert np.array_equal(got, store.message(theta))
        assert calls == [((6, 64, 64), 1, 32)], calls


# ---------------------------------------------------------------------------
# fused query assembly and decode peel against per-context references

FUSED_POINTS = [GOLDEN_1, GOLDEN_2, SchemeParams(4, 2, 3, 2), SchemeParams(6, 2, 2, 1, w=16)]


def reference_session_queries(plan, mixers):
    """Rows of every database for a whole L x L mixer per message (..., K,
    L, L), one product per (context, member) pair and one row at a time,
    read off the public slot table: a member's pool span, less the start of
    its block, is its span of its own mixer."""
    others = [i for i in range(1, plan.params.K + 1) if i != plan.theta]
    coef = {}
    for ci, ctx in enumerate(plan.contexts):
        gen = make_mds(ctx.length, ctx.dim, plan.field).entries
        for i in ctx.members:
            start = plan.profile.L + others.index(i) * plan.block
            lo, hi = (r - start for r in ctx.block_rows[i])
            coef[(ci, i)] = linalg.matmul(plan.field, gen, mixers[..., i - 1, lo:hi, :])
    out = []
    for slots in plan.slots_per_db:
        rows = [mixers[..., i - 1, s.desired_offset, :] if i == plan.theta
                else coef[(s.context, i)][..., s.coord, :]
                for s in slots for i in s.subset]
        out.append(np.stack(rows, axis=-2))
    return out


def reference_peel(plan, state, raw):
    """The desired precoded stream and each context's information vector
    from the raw slot values, one context at a time, by direct solves."""
    field = plan.field
    desired = np.zeros(plan.profile.L, dtype=field.dtype)
    free = [[] for _ in plan.contexts]
    bear = [[] for _ in plan.contexts]
    for db, slots in enumerate(plan.slots_per_db):
        for idx, s in enumerate(slots):
            value = raw[db][idx]
            if s.context is None:
                desired[s.desired_offset] = value
            elif s.desired_offset is None:
                free[s.context].append((s.coord, value))
            else:
                bear[s.context].append((s.coord, value, s.desired_offset))
    infos = []
    for ci, ctx in enumerate(plan.contexts):
        gen = make_mds(ctx.length, ctx.dim, field).entries
        coords, values = zip(*free[ci])
        info = linalg.solve(field, gen[list(coords), :], np.array(values, dtype=field.dtype))
        infos.append(info)
        codeword = linalg.matvec(field, gen, info)
        for coord, value, offset in bear[ci]:
            desired[offset] = value ^ codeword[coord]
    return desired, infos


@pytest.mark.parametrize("params", FUSED_POINTS, ids=lambda p: p.label())
def test_session_queries_match_per_pair_reference(params):
    """One product per context shape over the pool of the desired mixer and
    the other messages' first u rows gives every row that the per-(context,
    member) products over whole mixers give, for every theta and session
    shape: no query reads a mixer row at or past u."""
    rng = np.random.default_rng(60)
    for theta in range(1, params.K + 1):
        plan = download_plan(params, theta)
        others = [i - 1 for i in range(1, params.K + 1) if i != theta]
        for lead in ((), (3,), (2, 2)):
            length = plan.profile.L
            mixers = plan.field.random_symbols(rng, lead + (params.K, length, length))
            blocks = mixers[..., others, :plan.block, :].reshape(lead + (-1, length))
            pool = np.concatenate([mixers[..., theta - 1, :, :], blocks], axis=-2)
            got = database_queries(plan, pool)
            want = reference_session_queries(plan, mixers)
            for db, (q, rows) in enumerate(zip(got, want)):
                assert q.rows.shape == rows.shape
                assert np.array_equal(q.rows, rows), (theta, lead, db)
                assert q.shape.slot_members == tuple(s.subset for s in plan.slots_per_db[db])


@pytest.mark.parametrize("params", FUSED_POINTS, ids=lambda p: p.label())
def test_decode_streams_match_per_context_reference(params):
    """The shape-batched peel returns the desired stream, every context's
    information vector of a context-by-context peel and its cached part (the
    sum over cached members of one product each), on raw and compressed
    answers and for every cache size from 0 to M."""
    for m in range(params.M + 1):
        sized = dataclasses.replace(params, M=m)
        for theta in range(1, params.K + 1):
            plan, state = build_plan(sized, theta, 70 + theta)
            store = random_store(plan.field, params.K, plan.profile.L,
                                 np.random.default_rng(71 + m))
            others = [i for i in range(1, params.K + 1) if i != theta]
            side = store.side_information(others[-m:] if m else ())
            queries = database_queries(plan, state.pool)
            raw = [answer_raw(q, store) for q in queries]
            want_desired, want_infos = reference_peel(plan, state, raw)
            want_parts = []
            for ctx in plan.contexts:
                part = np.zeros(ctx.dim, dtype=plan.field.dtype)
                for i in set(ctx.members) & set(side):
                    lo, hi = ctx.block_rows[i]
                    part ^= linalg.matvec(plan.field, state.pool[lo:hi], side[i])
                want_parts.append(part)
            replies = [answer_every([dataclasses.replace(q, compress=False) for q in queries],
                                    store)]
            if m:
                replies.append(answer_every(queries, store))
                assert replies[-1][0] == FORM_COMPRESSED
            for form, answers in replies:
                got_desired, got_infos, got_parts = decode_streams(form, answers, plan, state,
                                                                   side)
                assert np.array_equal(got_desired, want_desired), (m, theta, form)
                assert len(got_infos) == len(want_infos) == len(got_parts)
                for ci, (a, b) in enumerate(zip(got_infos, want_infos)):
                    assert np.array_equal(a, b), (m, theta, form, ci)
                for ci, (a, b) in enumerate(zip(got_parts, want_parts)):
                    assert np.array_equal(a, b), (m, theta, form, ci)


def test_warm_retrieval_runs_one_product_per_context_shape(monkeypatch):
    """A warm (6,2,2,1) retrieval, whose 31 contexts share one shape, makes
    at most 16 field products in all, and its decode at most 5: the cached
    parts, the known slots' values, one erasure product for all databases,
    and two for the peel. A product per (context, member) pair and two per
    context made 154 in all, and per-item cached slots and erasure 12 in
    decode."""
    params = SchemeParams(6, 2, 2, 1, w=16)
    store = random_store(standard_field(16), 6, count_profile(params).L,
                         np.random.default_rng(42))
    calls = []
    original = linalg.matmul

    def counting(field, a, b):
        calls.append((np.shape(a), np.shape(b)))
        return original(field, a, b)

    monkeypatch.setattr(linalg, "matmul", counting)
    for theta, cached in ((1, (2, 3)), (4, (1, 6)), (6, (2, 5))):
        side = store.side_information(cached)
        for seed in (7, 8):
            calls.clear()
            plan, state = build_plan(params, theta, seed)
            form, answers = answer_every(database_queries(plan, state.pool), store)
            before = len(calls)
            got = decode(form, answers, plan, state, side)
            assert np.array_equal(got, store.message(theta))
            assert len(calls) <= 16, calls
            assert len(calls) - before <= 5, calls[before:]


@pytest.mark.parametrize("params", FUSED_POINTS, ids=lambda p: p.label())
def test_decode_streams_over_sessions_match_single_sessions(params):
    """One decode_streams call over B sessions gives what B single-session
    calls give, on raw and compressed answers and for every cache size from
    0 to M; the batched answers are the single-session answers too."""
    batch = 3
    for m in range(params.M + 1):
        sized = dataclasses.replace(params, M=m)
        theta = 1 + m % params.K
        plan = download_plan(sized, theta)
        _, state = build_plan(sized, theta, [np.random.default_rng((80, m, j))
                                             for j in range(batch)])
        pool, (lu, perm) = state.pool, state.desired_factors
        stores = plan.field.random_symbols(np.random.default_rng(81 + m),
                                           (batch, params.K, plan.profile.L))
        others = [i for i in range(1, params.K + 1) if i != theta]
        cached = others[-m:] if m else []
        queries = database_queries(plan, pool)
        batched = MessageStore(field=plan.field, messages=stores)
        replies = [answer_every([dataclasses.replace(q, compress=False) for q in queries],
                                batched)]
        if m:
            replies.append(answer_every(queries, batched))
        for form, answers in replies:
            got = decode_streams(form, answers, plan, state,
                                 {i: stores[:, i - 1] for i in cached})
            for j in range(batch):
                one = tpir_psi.PrecodingState(pool=pool[j], desired_factors=(lu[j], perm[j]))
                store = MessageStore(field=plan.field, messages=stores[j])
                single_form, single = answer_every(
                    [dataclasses.replace(q, compress=form != FORM_RAW)
                     for q in database_queries(plan, pool[j])], store)
                assert single_form == form
                for a, b in zip(single, answers):
                    assert np.array_equal(a, b[j])
                want = decode_streams(form, single, plan, one, store.side_information(cached))
                assert np.array_equal(got[0][j], want[0]), (m, form, j)
                assert np.array_equal(linalg.lu_solve(plan.field, *one.desired_factors,
                                                      want[0]), stores[j, theta - 1])
                for a_list, b_list in zip(got[1:], want[1:]):
                    for a, b in zip(a_list, b_list):
                        assert np.array_equal(a[j], b), (m, form, j)
