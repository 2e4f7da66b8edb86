"""The symmetric variant: the client learns nothing beyond its message.

Queries are evaluations of masking polynomials of degree < T plus an
indicator monomial for the desired message; every database answers with a
single symbol and adds a shared masking polynomial the client never sees.
Interpolating the answers yields the desired message in the top
coefficients while the shared mask keeps the low ones uniform.
"""

import numpy as np

from sidepir import SchemeParams, random_store
from sidepir.stpir_psi import (
    derive_common_randomness,
    make_sym_params,
    queries_from_masks,
    session_protocol,
    sym_answers,
    sym_coefficients,
    sym_decode,
    sym_masks,
)

SECRET = bytes.fromhex("00112233445566778899aabbccddeeff" * 2)


def main():
    params = SchemeParams(K=3, M=0, N=4, T=2)
    sp = make_sym_params(params)
    print(f"{params.label()}: messages are N-T = {sp.message_length} symbols; "
          f"evaluation points {sp.lambdas.tolist()}")

    rng = np.random.default_rng(11)
    store = random_store(sp.field, params.K, sp.message_length, rng)
    theta = 2

    queries = queries_from_masks(sp, theta, sym_masks(sp, rng))
    print(f"each database receives K*(N-T) = {queries.shape[1] * queries.shape[2]} "
          "masked coordinates; any 2 databases' coordinates are jointly uniform")

    session_id = rng.bytes(16)
    sigma = derive_common_randomness(SECRET, session_id, params.T, sp.field)
    print(f"session {session_id.hex()[:16]}...: servers derive sigma = "
          f"{sigma.tolist()} from their shared secret ({params.T} symbols, "
          f"rho = {params.T}/{params.N - params.T})")

    answers = sym_answers(sp, queries, store.messages, sigma)
    print(f"answers (one symbol each): {answers.tolist()}")

    coeffs = sym_coefficients(answers, sp)
    print(f"interpolated coefficients: low {params.T} masked -> "
          f"{coeffs[:params.T].tolist()}, top {params.N - params.T} carry the "
          f"message -> {coeffs[params.T:].tolist()}")

    got = sym_decode(answers, sp)
    assert np.array_equal(got, store.message(theta))
    print(f"decoded message {theta} exactly; rate "
          f"{sp.message_length}/{params.N} = 1 - T/N")
    print()

    # all but one cached: the protocol a stpir retrieval then runs
    shortcut = SchemeParams(K=3, M=2, N=4, T=2)
    protocol, side = session_protocol("stpir", shortcut).prepare(
        2, store.side_information({1, 3}))
    state = protocol.draw(2, [rng])
    answers = protocol.answer(state, store)
    direct = protocol.finish(state, answers, {i: v[None] for i, v in side.items()})[0]
    assert np.array_equal(direct, store.message(2))
    print(f"caching all but one message: {type(protocol).__name__} asks database 1 "
          f"only, for the plain sum ({protocol.count} symbols), and strips the cache;")
    print(f"rate {protocol.capacity()}, shared randomness rho = {protocol.rho()}.")


if __name__ == "__main__":
    main()
