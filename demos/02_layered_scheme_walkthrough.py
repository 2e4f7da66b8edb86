"""End-to-end walkthrough of the layered scheme at (K=3, M=1, N=2, T=1).

Shows the slot table each database serves, which slots the client can
already evaluate from its cache, how redundancy removal shrinks the
download from 7 to 6 symbols per database, and the exact decode.
"""

import numpy as np

from sidepir import SchemeParams, capacity_tpir_psi, random_store, wire
from sidepir.tpir_psi import (
    answer,
    answer_raw,
    build_plan,
    database_queries,
    decode,
    known_slots,
)


def subset_label(subset):
    return "+".join(f"W{i}" for i in subset)


def main():
    params = SchemeParams(K=3, M=1, N=2, T=1)
    theta, cached = 1, {3}
    print(f"{params.label()}: retrieve message {theta}, cache holds {sorted(cached)}")
    plan, state = build_plan(params, theta, rng=2024)
    print(f"symbols: GF(2^{plan.field.w}); message length L = {plan.profile.L}")
    print(f"per database: p1 = {plan.profile.p1} slots, of which the cache "
          f"already covers p2 = {plan.profile.p2}")
    print()

    for db, slots in enumerate(plan.slots_per_db):
        print(f"database {db + 1} slot table (one downloaded symbol each):")
        for idx, slot in enumerate(slots):
            tag = " <- desired inside" if theta in slot.subset else ""
            print(f"  slot {idx}: {subset_label(slot.subset)}{tag}")
    print()

    rng = np.random.default_rng(7)
    store = random_store(plan.field, params.K, plan.profile.L, rng)
    side = store.side_information(cached)

    queries = database_queries(plan, state.pool)
    raw = [answer_raw(q, store) for q in queries]
    print(f"raw answers: {[len(r) for r in raw]} symbols per database "
          f"(rate {plan.profile.L}/{sum(len(r) for r in raw)})")

    slots, values = known_slots(plan, state, side)
    for db in range(params.N):
        labels = [subset_label(plan.slots_per_db[db][i].subset) for i in slots]
        print(f"database {db + 1}: cache already determines slots {labels}, "
              f"values {values[db].tolist()}")
        assert np.array_equal(raw[db][slots], values[db])

    # each reply is (form byte, symbols), the form as the ANSWER frame carries it
    replies = [answer(q, store) for q in queries]
    form = replies[0][0]
    answers = np.stack([symbols for _, symbols in replies])
    print(f"with redundancy removal each database ships only "
          f"{answers.shape[1]} parity symbols of a systematic "
          f"({2 * plan.profile.p1 - plan.profile.p2},{plan.profile.p1}) code "
          f"(answer form {wire.FORM_NAMES[form]})")

    got = decode(form, answers, plan, state, side)
    assert np.array_equal(got, store.message(theta))
    total = answers.size
    print(f"decoded exactly; downloaded {total} symbols for "
          f"{plan.profile.L} desired ones")
    print(f"rate {plan.profile.L}/{total} = {capacity_tpir_psi(params)} "
          "= the capacity for this setting")


if __name__ == "__main__":
    main()
