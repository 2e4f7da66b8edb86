"""Collusion resistance at (K=3, M=2, N=3, T=2).

Two of the three databases may pool everything they see. The undesired
message streams are grouped per context and precoded with shared MDS
generators sized so that any two databases jointly observe exactly one full
information set per group: an invertible transform of uniformly mixed rows,
identical in distribution whichever message is desired.
"""

import numpy as np

from sidepir import SchemeParams, random_store, wire
from sidepir.audit import LayeredScheme, view_digest
from sidepir.tpir_psi import LayeredProtocol, build_plan


def main():
    params = SchemeParams(K=3, M=2, N=3, T=2)
    plan, state = build_plan(params, theta=1, rng=99)
    print(f"{params.label()}: every message is {plan.profile.L} symbols; "
          f"each database serves {plan.profile.p1} slots")
    print()
    print("undesired-stream groups (shared generator per context):")
    for ctx in plan.contexts:
        members = ",".join(f"W{i}" for i in ctx.members)
        per_db = ctx.length // params.N
        print(f"  context {{{members}}}: ({ctx.length},{ctx.dim}) code, "
              f"{per_db} coordinates per database, so 2 colluders see "
              f"{2 * per_db} = dim rows: one full information set")
    print()

    scheme = LayeredScheme(params)
    print("wire-visible structure is identical for every desired index:")
    for theta in (1, 2, 3):
        print(f"  theta={theta}: fingerprint "
              f"{scheme.structure_fingerprint(theta).hex()}")
    print()

    print("what colluders actually receive (one session, subset {1,2}):")
    payloads = scheme.query_payloads(1, seed=5)
    view = wire.collusion_view_bytes((1, 2), payloads)
    print(f"  joint view: {len(view)} bytes, digest {view_digest(view).hex()}")
    print("  rerun the session with fresh randomness and the digest changes;")
    print("  rerun with a different desired index and the distribution does not.")
    print()

    store = random_store(plan.field, 3, plan.profile.L, np.random.default_rng(4))
    protocol = LayeredProtocol(params)
    answers = protocol.answer((plan, state), store)  # stacked (N, count)
    got = protocol.finish((plan, state), answers, store.side_information({2, 3}))
    assert np.array_equal(got, store.message(1))
    print(f"with both other messages cached, each database ships "
          f"{answers.shape[1]} symbols instead of {plan.profile.p1}: "
          f"rate {plan.profile.L}/{answers.size} = 1")


if __name__ == "__main__":
    main()
