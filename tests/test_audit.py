"""Auditor: estimators, positive audits, negative controls, the converse
assertion, report serialization. Statistical audits run here at reduced
session counts with correspondingly relaxed gates; the acceptance suite runs
them at full scale."""

import json
from fractions import Fraction

import numpy as np
import pytest

from sidepir import audit, client, wire
from sidepir.capacity import SchemeParams, desk_grid
from sidepir.errors import AuditInvariantError, ParameterError
from sidepir.store import random_store

MASTER_SEEDS = (0, 1, 2)


def test_tv_estimator_raw_branch():
    a = [b"x" * 16] * 100
    b = [b"y" * 16] * 100
    tv, kind = audit.tv_between_digests(a, b)
    assert kind == "raw" and tv == 1.0
    tv, kind = audit.tv_between_digests(a, list(a))
    assert kind == "raw" and tv == 0.0


def test_tv_estimator_folded_branch():
    rng = np.random.default_rng(0)
    a = [rng.bytes(16) for _ in range(4000)]
    b = [rng.bytes(16) for _ in range(4000)]
    tv, kind = audit.tv_between_digests(a, b)
    assert kind == "folded"
    assert tv < 0.05


def test_tv_point_mass_vs_diffuse_detected():
    rng = np.random.default_rng(1)
    point = [b"z" * 16] * 4000
    diffuse = [rng.bytes(16) for _ in range(4000)]
    tv, kind = audit.tv_between_digests(point, diffuse)
    assert kind == "folded" and tv > 0.3


def test_chi_square_helper():
    rng = np.random.default_rng(2)
    assert audit.chi_square_uniform_p(rng.integers(0, 16, 50_000), 16) > 0.001
    assert audit.chi_square_uniform_p(np.zeros(50_000, dtype=int), 16) < 1e-9


@pytest.mark.parametrize("seed", MASTER_SEEDS)
def test_correctness_audits_pass(seed):
    rep = audit.audit_correctness(audit.LayeredScheme(SchemeParams(3, 1, 2, 1)),
                                  sessions=60, seed=seed)
    assert rep.passed
    rep = audit.audit_correctness(audit.SymmetricScheme(SchemeParams(3, 0, 3, 1)),
                                  sessions=60, seed=seed)
    assert rep.passed


def test_correctness_audit_exhaustive_golden_2():
    rep = audit.audit_correctness(audit.LayeredScheme(SchemeParams(3, 2, 3, 2)),
                                  sessions=60, seed=9)
    assert rep.passed


class ClippedScheme(audit.LayeredScheme):
    """Mutation: every database ships its compressed answer one symbol
    short, so each database's completion with the cached slots is one
    coordinate short of the code dimension."""

    name = "tpir-psi-clipped"

    def run_session(self, rng):
        from sidepir.store import random_store
        from sidepir.tpir_psi import build_plan, decode_streams
        theta, side_idx = self._draw_theta_side(rng)
        plan, state = build_plan(self.params, theta, rng)
        store = random_store(self.field, self.params.K, self.message_length, rng)
        assert self.protocol.form == wire.FORM_COMPRESSED
        answers = self.protocol.answer((plan, state), store)
        decode_streams(self.protocol.form, answers[..., :-1], plan, state,
                       store.side_information(side_idx))
        raise AssertionError("unreachable")


def test_mutated_scheme_fails_with_short_answers():
    rep = audit.audit_correctness(ClippedScheme(SchemeParams(3, 1, 2, 1)),
                                  sessions=3, seed=0)
    assert not rep.passed
    assert all("ProtocolError: answers are shaped (2, 5)" in f for f in rep.failures), \
        rep.failures


@pytest.mark.parametrize("seed", MASTER_SEEDS)
def test_user_privacy_positive_small(seed):
    # gate loosened to match the estimator's noise at 6000 sessions
    rep = audit.audit_user_privacy(audit.LayeredScheme(SchemeParams(3, 1, 2, 1)),
                                   sessions=6000, seed=seed, tv_threshold=0.06)
    assert rep.passed, rep.failures


def test_user_privacy_symmetric_positive_small():
    rep = audit.audit_user_privacy(audit.SymmetricScheme(SchemeParams(3, 0, 3, 2)),
                                   sessions=6000, seed=5, tv_threshold=0.06)
    assert rep.passed, rep.failures


@pytest.mark.parametrize("seed", MASTER_SEEDS)
def test_user_privacy_negative_control(seed):
    rep = audit.audit_user_privacy(audit.DirectDownloadScheme(SchemeParams(3, 1, 2, 1)),
                                   sessions=300, seed=seed)
    assert not rep.passed
    assert any("structure" in f for f in rep.failures)
    assert any("tv=1.0" in f for f in rep.failures)


class ThetaInHeader(audit.SymmetricScheme):
    """Negative control: the symmetric scheme with the desired index also
    written into each payload's header, over the high byte of K."""

    def session_payloads(self, theta, seeds):
        return [{n: p[:3] + bytes([theta]) + p[4:] for n, p in pmap.items()}
                for pmap in super().session_payloads(theta, seeds)]


@pytest.mark.parametrize("params", [SchemeParams(3, 0, 3, 1), SchemeParams(4, 1, 3, 1)],
                         ids=lambda p: p.label())
def test_symmetric_structure_layer_sees_a_theta_in_the_header(params):
    """The symmetric fingerprint digests a session's payloads with their
    session ids and coordinates zeroed: the same at every theta for the
    honest scheme, and different where the header carries theta, which the
    1-bit fold of the statistical layer cannot tell from noise."""
    honest, leaky = audit.SymmetricScheme(params), ThetaInHeader(params)
    assert len({honest.structure_fingerprint(t) for t in range(1, params.K + 1)}) == 1
    assert len({leaky.structure_fingerprint(t) for t in range(1, params.K + 1)}) == params.K
    rep = audit.audit_user_privacy(leaky, sessions=200, seed=5)
    assert not rep.passed
    assert rep.failures[0].startswith("plan structure varies with the desired index")
    rep = audit.audit_user_privacy(honest, sessions=200, seed=5)
    assert not any("structure" in f for f in rep.failures)


@pytest.mark.parametrize("seed", MASTER_SEEDS)
def test_db_privacy_positive_and_controls(seed):
    sessions = 4000
    rep = audit.audit_db_privacy(audit.SymmetricScheme(SchemeParams(3, 0, 3, 1)),
                                 sessions=sessions, seed=seed, tv_threshold=0.06)
    assert rep.passed, rep.failures
    rep = audit.audit_db_privacy(
        audit.SymmetricScheme(SchemeParams(3, 0, 3, 1), masked=False),
        sessions=1500, seed=seed)
    assert not rep.passed
    rep = audit.audit_db_privacy(audit.LayeredScheme(SchemeParams(3, 1, 2, 1)),
                                 sessions=1000, seed=seed)
    assert not rep.passed  # the non-symmetric scheme leaks, by design


@pytest.mark.parametrize("params", [SchemeParams(3, 1, 2, 1), SchemeParams(4, 2, 3, 2)],
                         ids=lambda p: p.label())
def test_layered_db_privacy_report_does_not_depend_on_batch(monkeypatch, params):
    """The layered residual decodes a whole batch of sessions at once; the
    report is the same whether a batch holds 512 sessions or 7."""
    scheme = audit.LayeredScheme(params)
    want = audit.audit_db_privacy(scheme, 30, 4).to_json()
    monkeypatch.setattr(audit, "DEFAULT_BATCH", 7)
    assert audit.audit_db_privacy(scheme, 30, 4).to_json() == want


def test_db_privacy_flip_arm_differs_only_by_one_symbol():
    scheme = audit.SymmetricScheme(SchemeParams(3, 0, 3, 1))
    rep = audit.audit_db_privacy(scheme, sessions=800, seed=3, tv_threshold=0.15)
    assert {"tv_ZR", "tv_RF"} <= set(rep.statistics)


@pytest.mark.parametrize("seed", MASTER_SEEDS)
def test_rate_audits(seed):
    rep = audit.measure_rate(audit.LayeredScheme(SchemeParams(3, 1, 2, 1)),
                             sessions=5, seed=seed)
    assert rep.passed and rep.measured_rate == Fraction(2, 3)
    rep = audit.measure_rate(audit.LayeredScheme(SchemeParams(3, 2, 3, 2)),
                             sessions=5, seed=seed)
    assert rep.passed and rep.measured_rate == 1
    rep = audit.measure_rate(audit.SymmetricScheme(SchemeParams(3, 0, 4, 2)),
                             sessions=5, seed=seed)
    assert rep.passed and rep.measured_rate == Fraction(1, 2)
    assert rep.statistics["randomness_symbols"] == 2


def test_rate_shortcut_no_randomness():
    rep = audit.measure_rate(audit.SymmetricScheme(SchemeParams(3, 2, 3, 1)),
                             sessions=5, seed=1)
    assert rep.passed and rep.measured_rate == 1
    assert rep.statistics["randomness_symbols"] == 0


class OverclaimingScheme(audit.LayeredScheme):
    """Accounting bug on purpose: under-reports the download volume."""

    def run_session(self, rng):
        outcome = super().run_session(rng)
        return audit.SessionOutcome(
            ok=outcome.ok, downloaded_symbols=outcome.downloaded_symbols - 1,
            desired_symbols=outcome.desired_symbols,
            randomness_symbols=outcome.randomness_symbols, note=outcome.note)


def test_converse_violation_is_a_hard_failure():
    with pytest.raises(AuditInvariantError):
        audit.measure_rate(OverclaimingScheme(SchemeParams(3, 1, 2, 1)),
                           sessions=3, seed=0)


def test_report_json_schema():
    rep = audit.measure_rate(audit.LayeredScheme(SchemeParams(3, 1, 2, 1)),
                             sessions=3, seed=7)
    obj = json.loads(rep.to_json())
    assert obj["verdict"] == "pass"
    assert obj["params"] == {"K": 3, "M": 1, "N": 2, "T": 1, "w": None}
    assert obj["rate"] == "2/3" and obj["capacity"] == "2/3"
    assert {"test", "scheme", "sessions", "seed", "statistics", "failures"} <= set(obj)
    assert "PASS" in rep.summary()


def test_collusion_view_canonical_serialization():
    """A subset's view is the same bytes whatever order the subset and the
    payloads come in, so equal views digest equally."""
    view_a = wire.collusion_view_bytes((2, 1), {1: b"one", 2: b"two"})
    view_b = wire.collusion_view_bytes((1, 2), {2: b"two", 1: b"one"})
    assert view_a == view_b
    assert audit.view_digest(view_a) == audit.view_digest(view_b)


# every desk-grid point under both schemes where they are defined; the
# symmetric adapter runs the sum download at M = K - 1, as a retrieval does
GRID_SCHEMES = [scheme for params in desk_grid() for scheme in
                [audit.LayeredScheme(params)]
                + ([audit.SymmetricScheme(params)] if params.K >= 2 else [])]


@pytest.mark.parametrize("scheme", GRID_SCHEMES, ids=lambda s: f"{s.name}{s.params.label()}")
def test_view_digests_follow_the_client_query_path(scheme):
    """The audited payloads are, session by session, the QUERY payloads that
    ``client.retrieve`` sends for the same seed, at every desired index; the
    batched view digests are those of the sent payloads, across batch
    boundaries and batch sizes."""
    params = scheme.params
    role = "tpir" if isinstance(scheme, audit.LayeredScheme) else "stpir"
    store = random_store(scheme.field, params.K, scheme.message_length,
                         np.random.default_rng(30))
    subsets = audit.all_collusion_subsets(params)
    for theta in range(1, params.K + 1):
        digests = scheme.view_digests(theta, subsets, sessions=7, master_seed=31, batch=3)
        others = [i for i in range(1, params.K + 1) if i != theta]
        side = store.side_information(others[:params.M])
        for j in range(7):
            seed = (31, theta, j)
            result = client.retrieve(
                client.local_simulator(store, params.N, role, audit.AUDIT_SECRET),
                params, theta, side, np.random.default_rng(seed), scheme=role)
            sent = {t.endpoint: t.query_sent for t in result.transcripts}
            assert scheme.query_payloads(theta, seed) == sent
            for s in subsets:
                assert digests[s][j] == audit.view_digest(wire.collusion_view_bytes(s, sent))
        for batch in (1, 512):
            assert scheme.view_digests(theta, subsets, sessions=7, master_seed=31,
                                       batch=batch) == digests


def test_audits_refuse_fewer_than_one_session():
    schemes = (audit.LayeredScheme(SchemeParams(3, 1, 2, 1)),
               audit.SymmetricScheme(SchemeParams(3, 0, 3, 1)))
    for scheme in schemes:
        for run in (audit.audit_correctness, audit.audit_user_privacy,
                    audit.audit_db_privacy, audit.measure_rate):
            for sessions in (0, -3):
                with pytest.raises(ParameterError):
                    run(scheme, sessions, 0)


@pytest.mark.parametrize("scheme,params,raw", [
    ("tpir", SchemeParams(3, 1, 2, 1), False),
    ("tpir", SchemeParams(3, 1, 2, 1), True),
    ("stpir", SchemeParams(3, 0, 3, 1), False),
    ("stpir", SchemeParams(3, 0, 4, 2), False),
    ("stpir", SchemeParams(3, 2, 3, 1), False),
], ids=["layered-compressed", "layered-raw", "symmetric-T1", "symmetric-T2", "sum"])
def test_in_process_answers_are_the_servers_answers(scheme, params, raw):
    """The audits answer every database of a batch of sessions in process,
    with ``protocol.answer``: database n's symbols there are the ANSWER a
    server sends endpoint n for that session's QUERY, so the db-privacy
    residuals and the correctness audit check the code servers run."""
    from sidepir.server import ServerCore
    from sidepir.stpir_psi import session_protocol

    protocol = session_protocol(scheme, params, raw)
    store = random_store(protocol.field, params.K, protocol.message_length,
                         np.random.default_rng(8))
    secret = audit.AUDIT_SECRET
    state = protocol.draw(1, [np.random.default_rng(s) for s in range(3)])
    answers = protocol.answer(state, store, secret)
    core = ServerCore(store, role=scheme, secret=secret)
    sessions = protocol.payloads(state)
    frames = client._params_frames(params, scheme, protocol.field.w, protocol.message_length,
                                   len(sessions[0]))
    assert answers.shape == (len(frames), len(sessions), protocol.count)
    for j, payloads in enumerate(sessions):
        for n, payload in payloads.items():
            session = core.new_session()
            ftype, _ = core.handle_frame(session, wire.TYPE_PARAMS, frames[n - 1])
            assert ftype == wire.TYPE_PARAMS
            ftype, reply = core.handle_frame(session, wire.TYPE_QUERY, payload)
            assert ftype == wire.TYPE_ANSWER
            form, symbols = wire.parse_answer(protocol.field, reply)
            assert form == protocol.form
            assert np.array_equal(symbols, answers[n - 1, j])
