"""Executable audits: correctness, user privacy, database privacy, rate.

The privacy constraints are information-theoretic, so they are checked in
two layers. Exact layer: the wire-visible query structure must be byte
identical across desired indices, and query generation must be a
deterministic function of (desired index, seed) alone, which rules out any
dependence on the cached set. Statistical layer: Monte-Carlo estimates of
the total-variation distance between collusion-view distributions, plus
chi-square uniformity tests on what the client can reconstruct beyond its
own message.

Views live in enormous spaces, so raw empirical TV between two samples of
the same distribution would be near 1 and meaningless. The estimator is
therefore adaptive: when the observed digest support is small the raw
histogram TV is consistent and is used directly (this catches deterministic
leaks like a direct download); otherwise each 16-byte view digest is folded
to a single bit, whose histogram TV concentrates well below the threshold
for identical distributions while still exposing gross support mismatches.

Rates are measured as exact rationals from actual downloaded symbol counts
and compared with the capacity formulas by equality; a measured rate above
capacity is a hard failure, since it can only mean an accounting bug.

The audits hold no protocol code of their own: views are the payloads of
the schemes' own query code, run over a leading session axis, and residuals
come from their own decoding steps, so what is audited is what retrieves.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy import stats

from . import wire
from .capacity import SchemeParams
from .errors import AuditInvariantError, ParameterError
from .store import MessageStore, random_store
from .stpir_psi import SumProtocol, session_protocol, sym_coefficients
from .tpir_psi import database_queries, decode_streams, download_plan

DEFAULT_TV_THRESHOLD = 0.01
DEFAULT_CHI_P = 0.001
SMALL_SUPPORT_CUTOFF = 8
DIGEST_SIZE = 16

# Fixed server-shared secret for in-process audits of the symmetric scheme.
AUDIT_SECRET = bytes(range(32))


def subseed(*parts) -> tuple[int, ...]:
    """Map a mixed tuple of ints and labels to a numpy-compatible seed."""
    out = []
    for p in parts:
        if isinstance(p, (int, np.integer)):
            out.append(int(p) & (2**63 - 1))
        else:
            h = hashlib.blake2b(str(p).encode(), digest_size=8).digest()
            out.append(int.from_bytes(h, "little"))
    return tuple(out)


def view_digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


def _fold_bit(digest: bytes) -> int:
    acc = 0
    for b in digest:
        acc ^= b
    return acc & 1


def tv_between_digests(sample_a, sample_b) -> tuple[float, str]:
    """Total-variation estimate between two digest samples.

    Returns (tv, estimator): "raw" over the digest histogram when the joint
    support is small enough for that estimator to be consistent, else
    "folded" over the 1-bit digest fold.
    """
    support = set(sample_a) | set(sample_b)
    if len(support) <= SMALL_SUPPORT_CUTOFF:
        keys = sorted(support)
        ca = {k: 0 for k in keys}
        cb = {k: 0 for k in keys}
        for d in sample_a:
            ca[d] += 1
        for d in sample_b:
            cb[d] += 1
        tv = 0.5 * sum(
            abs(ca[k] / len(sample_a) - cb[k] / len(sample_b)) for k in keys
        )
        return tv, "raw"
    ones_a = sum(_fold_bit(d) for d in sample_a)
    ones_b = sum(_fold_bit(d) for d in sample_b)
    tv = abs(ones_a / len(sample_a) - ones_b / len(sample_b))
    return tv, "folded"


def chi_square_uniform_p(values: np.ndarray, cells: int) -> float:
    """p-value of a chi-square test of uniformity over 0..cells-1."""
    counts = np.bincount(np.asarray(values, dtype=np.int64), minlength=cells)
    return float(stats.chisquare(counts).pvalue)


@dataclass
class AuditReport:
    test: str
    scheme: str
    params: SchemeParams
    sessions: int
    seed: int
    passed: bool
    statistics: dict
    failures: list[str] = dataclass_field(default_factory=list)
    measured_rate: Fraction | None = None
    capacity: Fraction | None = None

    def to_dict(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return str(v)
            if isinstance(v, bytes):
                return v.hex()
            if isinstance(v, dict):
                return {str(k): enc(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            if isinstance(v, (np.integer,)):
                return int(v)
            if isinstance(v, (np.floating,)):
                return float(v)
            return v

        return {
            "test": self.test,
            "scheme": self.scheme,
            "params": {"K": self.params.K, "M": self.params.M,
                       "N": self.params.N, "T": self.params.T,
                       "w": self.params.w},
            "sessions": self.sessions,
            "seed": self.seed,
            "verdict": "pass" if self.passed else "fail",
            "statistics": enc(self.statistics),
            "failures": list(self.failures),
            "rate": str(self.measured_rate) if self.measured_rate is not None else None,
            "capacity": str(self.capacity) if self.capacity is not None else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.measured_rate is not None:
            extra = f" rate={self.measured_rate} capacity={self.capacity}"
        line = (f"[{verdict}] {self.test} {self.scheme} {self.params.label()} "
                f"sessions={self.sessions} seed={self.seed}{extra}")
        for f in self.failures[:5]:
            line += f"\n    - {f}"
        return line


@dataclass(frozen=True)
class SessionOutcome:
    ok: bool
    downloaded_symbols: int
    desired_symbols: int
    randomness_symbols: int
    note: str


# ---------------------------------------------------------------------------
# scheme adapters

DEFAULT_BATCH = 512


def _view_digests(scheme, theta: int, subsets, sessions: int, master_seed: int,
                  batch: int = DEFAULT_BATCH) -> dict[tuple[int, ...], list[bytes]]:
    """Digest of every subset's collusion view over ``sessions`` sessions:
    session j is ``query_payloads(theta, (master_seed, theta, j))``, run
    ``batch`` at a time through the adapter's ``session_payloads``."""
    subsets = [tuple(sorted(s)) for s in subsets]
    out: dict[tuple[int, ...], list[bytes]] = {s: [] for s in subsets}
    for first in range(0, sessions, batch):
        seeds = [(master_seed, theta, j)
                 for j in range(first, min(sessions, first + batch))]
        for pmap in scheme.session_payloads(theta, seeds):
            for s in subsets:
                out[s].append(view_digest(wire.collusion_view_bytes(s, pmap)))
    return out


class _Adapter:
    """What the audit adapters share: their scheme's ``protocol`` and its runs."""

    server_secret: bytes | None = None  # what the in-process databases mask with

    def __init__(self, params: SchemeParams):
        self.protocol, self.params = session_protocol(self.role, params), params
        self.field, self.message_length = self.protocol.field, self.protocol.message_length

    def session_payloads(self, theta: int, seeds) -> list[dict[int, bytes]]:
        """Every seed's session payloads, keyed by 1-based database: all of
        them drawn and written by one pass of the protocol."""
        rngs = [np.random.default_rng(s) for s in seeds]
        return self.protocol.payloads(self.protocol.draw(theta, rngs))

    def query_payloads(self, theta: int, seed) -> dict[int, bytes]:
        """The payloads of the session of ``seed``."""
        return self.session_payloads(theta, [seed])[0]

    def _draw_theta_side(self, rng) -> tuple[int, tuple[int, ...]]:
        k, m = self.params.K, self.params.M
        theta = int(rng.integers(1, k + 1))
        others = [i for i in range(1, k + 1) if i != theta]
        side = tuple(sorted(int(i) for i in rng.choice(others, size=m, replace=False))) if m else ()
        return theta, side

    def _outcome(self, theta: int, side_idx, state, store: MessageStore,
                 note: str) -> SessionOutcome:
        """A drawn session's round trip in process, off the wire, its cache checked once."""
        protocol, side = self.protocol.prepare(theta, store.side_information(side_idx))
        answers = protocol.answer(state, store, self.server_secret)
        got = protocol.finish(state, answers, {i: vec[None] for i, vec in side.items()})
        return SessionOutcome(ok=bool(np.array_equal(got[0], store.message(theta))),
                              downloaded_symbols=answers.shape[0] * answers.shape[-1],
                              desired_symbols=self.message_length,
                              randomness_symbols=int(protocol.rho() * self.message_length),
                              note=note)


class LayeredScheme(_Adapter):
    """Audit adapter for the layered scheme with redundancy removal."""

    name, role = "tpir-psi", "tpir"

    def run_session(self, rng) -> SessionOutcome:
        theta, side_idx = self._draw_theta_side(rng)
        state = self.protocol.draw(theta, [rng])
        store = random_store(self.field, self.params.K, self.message_length, rng)
        return self._outcome(theta, side_idx, state, store, f"theta={theta} cached={side_idx}")

    def structure_fingerprint(self, theta: int) -> bytes:
        """Digest of the payloads with every coefficient row zeroed: what
        the wire shows apart from the random rows."""
        plan = download_plan(self.params, theta)
        rows = self.message_length + (self.params.K - 1) * plan.block
        zero = np.zeros((rows, self.message_length), dtype=self.field.dtype)
        return view_digest(b"".join(wire.serialize_database_query(q)
                                    for q in database_queries(plan, zero)))

    view_digests = _view_digests

    def residual_session(self, rngs, stores: np.ndarray, theta: int,
                         side_idx) -> np.ndarray:
        """Interference streams the client reconstructs during decoding,
        minus everything derivable from its cache: a direct exhibit of the
        symbols this non-symmetric scheme leaks about other messages. One
        row per session of ``rngs`` and (B, K, L) ``stores``, all decoded
        as one batch over the session axis from the answers a retrieval
        gets: each context's information vector minus its cached part, over
        the contexts that are not fully cached."""
        plan, state = self.protocol.draw(theta, rngs)
        store = MessageStore(field=self.field, messages=stores)
        answers = self.protocol.answer((plan, state), store)
        _, infos, parts = decode_streams(self.protocol.form, answers, plan, state,
                                         store.side_information(side_idx))
        return np.concatenate([info ^ part for ctx, info, part in zip(plan.contexts, infos, parts)
                               if not set(ctx.members) <= set(side_idx)], axis=-1)


class SymmetricScheme(_Adapter):
    """Audit adapter for the symmetric scheme, or the sum download at M = K-1."""

    role = "stpir"

    def __init__(self, params: SchemeParams, masked: bool = True, secret: bytes = AUDIT_SECRET):
        super().__init__(params)
        self.server_secret = secret if masked else None
        self.name = "stpir-psi" if masked else "stpir-psi-unmasked"

    def run_session(self, rng) -> SessionOutcome:
        theta, side_idx = self._draw_theta_side(rng)
        store = random_store(self.field, self.params.K, self.message_length, rng)
        return self._outcome(theta, side_idx, self.protocol.draw(theta, [rng]), store,
                             f"theta={theta}")

    def structure_fingerprint(self, theta: int) -> bytes:
        """Digest of a session's payloads at ``theta`` with every session-id
        and coordinate byte zeroed: what the wire shows apart from its random
        bytes. A sum query is public whole."""
        payloads = self.query_payloads(theta, 0).values()
        if not isinstance(self.protocol, SumProtocol):
            payloads = [p[:wire.SESSION_ID_AT].ljust(len(p), b"\0") for p in payloads]
        return view_digest(b"".join(payloads))

    view_digests = _view_digests

    def residual_session(self, rngs, stores: np.ndarray, theta: int,
                         side_idx) -> np.ndarray:
        """Per session of ``rngs`` and (B, K, N - T) ``stores``: the low T
        coefficients of the interpolated answer polynomial, minus what the
        client computes itself, the unmasked answers on the desired and
        cached messages alone (answers are linear in the store and in sigma).
        Uniform exactly when the shared mask does its job; a deterministic
        function of the other messages when it does not."""
        state, known = self.protocol.draw(theta, rngs), np.zeros_like(stores)
        kept = [k - 1 for k in {theta, *side_idx}]
        known[:, kept] = stores[:, kept]
        answers = self.protocol.answer(state, MessageStore(self.field, stores), self.server_secret)
        answers ^= self.protocol.answer(state, MessageStore(self.field, known), None)
        return sym_coefficients(answers[..., 0].T, self.protocol)[:, : self.params.T]


class DirectDownloadScheme:
    """Negative control: asks database 1 for the desired message by name."""

    name = "direct-download"

    def __init__(self, params: SchemeParams):
        self.params = params

    def query_payloads(self, theta: int, seed) -> dict[int, bytes]:
        return {n + 1: b"\x7fGIVE" + bytes([theta, n + 1]) for n in range(self.params.N)}

    def session_payloads(self, theta: int, seeds) -> list[dict[int, bytes]]:
        return [self.query_payloads(theta, s) for s in seeds]

    def structure_fingerprint(self, theta: int) -> bytes:
        return view_digest(b"".join(self.query_payloads(theta, 0).values()))

    view_digests = _view_digests


# ---------------------------------------------------------------------------
# audit procedures


def _session_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def _check_sessions(sessions: int) -> None:
    if sessions < 1:
        raise ParameterError(f"an audit needs at least 1 session, got {sessions}")


def audit_correctness(scheme, sessions: int, seed: int) -> AuditReport:
    """Full round trips over random (theta, cache, store); pass iff every
    decode is exact. Failures record the session index for replay."""
    _check_sessions(sessions)
    failures = []
    for i in range(sessions):
        try:
            outcome = scheme.run_session(_session_rng(seed, i))
        except Exception as exc:  # scheme-level error counts as failure
            failures.append(f"session {i}: {type(exc).__name__}: {exc}")
            continue
        if not outcome.ok:
            failures.append(f"session {i}: wrong message ({outcome.note})")
        if len(failures) >= 10:
            break
    return AuditReport(test="correctness", scheme=scheme.name, params=scheme.params,
                       sessions=sessions, seed=seed, passed=not failures,
                       statistics={}, failures=failures)


def all_collusion_subsets(params: SchemeParams) -> list[tuple[int, ...]]:
    return [tuple(c) for c in combinations(range(1, params.N + 1), params.T)]


def audit_user_privacy(scheme, sessions: int, seed: int,
                       tv_threshold: float = DEFAULT_TV_THRESHOLD) -> AuditReport:
    """Two layers: exact structure/determinism checks, then Monte-Carlo TV
    between collusion-view distributions of every T-subset for every
    desired-index pair."""
    _check_sessions(sessions)
    params = scheme.params
    failures = []
    stats_out: dict = {}

    fingerprints = {t: scheme.structure_fingerprint(t).hex()
                    for t in range(1, params.K + 1)}
    if len(set(fingerprints.values())) != 1:
        failures.append(f"plan structure varies with the desired index: {fingerprints}")
    stats_out["structure_fingerprint"] = fingerprints[1]

    probe_seed = subseed(seed, "determinism")
    probe = scheme.query_payloads(1, probe_seed)
    if probe != scheme.query_payloads(1, probe_seed):
        failures.append("query generation is not deterministic in (theta, seed)")

    subsets = all_collusion_subsets(params)
    tv_stats = {}
    max_tv = 0.0
    digests = {t: scheme.view_digests(t, subsets, sessions, seed)
               for t in range(1, params.K + 1)}
    for s in subsets:
        for ta, tb in combinations(range(1, params.K + 1), 2):
            tv, kind = tv_between_digests(digests[ta][s], digests[tb][s])
            tv_stats[f"T={s} theta={ta}/{tb}"] = {"tv": tv, "estimator": kind}
            max_tv = max(max_tv, tv)
            if tv >= tv_threshold:
                failures.append(
                    f"collusion view for subset {s} separates theta {ta} vs {tb}: "
                    f"tv={tv:.4f} ({kind})"
                )
    stats_out["tv"] = tv_stats
    stats_out["max_tv"] = max_tv
    stats_out["tv_threshold"] = tv_threshold
    return AuditReport(test="user-privacy", scheme=scheme.name, params=params,
                       sessions=sessions, seed=seed, passed=not failures,
                       statistics=stats_out, failures=failures)


def audit_db_privacy(scheme, sessions: int, seed: int,
                     tv_threshold: float = DEFAULT_TV_THRESHOLD) -> AuditReport:
    """What can the client learn beyond its message and its cache?

    Runs the scheme's residual extractor (the client-computable statistic
    that must be independent of all other messages) under three arms:

    Z: stores whose non-retrieved, non-cached messages are all zero;
    R: fully random stores;
    F: the R stores with one symbol of one non-retrieved message flipped.

    Each arm runs ``DEFAULT_BATCH`` sessions per ``residual_session`` call.
    Every session keeps its own store and session seeds, so the report does
    not depend on the batch size.

    Requires the residual to be per-coordinate uniform on Z and R, and the
    digest distributions of (Z, R) and (R, F) to be indistinguishable. A
    scheme that exposes other-message content fails on Z (the residual
    collapses) or on the two-sample comparisons.
    """
    _check_sessions(sessions)
    params = scheme.params
    fieldq = scheme.field
    theta = 1
    side_idx = tuple(range(2, 2 + params.M))
    undesired = [i for i in range(1, params.K + 1)
                 if i != theta and i not in side_idx]
    if not undesired:
        raise ParameterError("database-privacy audit needs at least one "
                             "non-retrieved, non-cached message")
    flip_msg = undesired[0]

    # subseed(seed, *labels, i) == subseed(seed, *labels) + (i,)
    store_seeds = [subseed(seed, "store", label) for label in ("Z", "RF")]
    arm_seeds = {arm: subseed(seed, arm) for arm in "ZRF"}
    blocks: dict[str, list[np.ndarray]] = {arm: [] for arm in "ZRF"}
    for first in range(0, sessions, DEFAULT_BATCH):
        batch = range(first, min(sessions, first + DEFAULT_BATCH))
        zero, rand = (np.stack([fieldq.random_symbols(np.random.default_rng(s + (i,)),
                                                      (params.K, scheme.message_length))
                                for i in batch]) for s in store_seeds)
        zero[:, [i - 1 for i in undesired]] = 0
        flip = rand.copy()  # the R stores, drawn once for both arms
        flip[:, flip_msg - 1, 0] ^= 1
        for arm, stores in zip("ZRF", (zero, rand, flip)):
            rngs = [np.random.default_rng(arm_seeds[arm] + (i,)) for i in batch]
            blocks[arm].append(scheme.residual_session(rngs, stores, theta, side_idx))
    arms = {arm: np.concatenate(b) for arm, b in blocks.items()}

    failures = []
    stats_out: dict = {"theta": theta, "cached": side_idx,
                       "flip_message": flip_msg}
    res_len = arms["R"].shape[1]
    stats_out["residual_symbols"] = res_len
    chi = {}
    for arm in ("Z", "R"):
        for j in range(res_len):
            p = chi_square_uniform_p(arms[arm][:, j], fieldq.q)
            chi[f"{arm}[{j}]"] = p
            if p <= DEFAULT_CHI_P:
                failures.append(
                    f"residual coordinate {j} is not uniform on arm {arm} (p={p:.2e})"
                )
    stats_out["chi_square_p"] = chi
    for pair in (("Z", "R"), ("R", "F")):
        da = [view_digest(v.tobytes()) for v in arms[pair[0]]]
        db = [view_digest(v.tobytes()) for v in arms[pair[1]]]
        tv, kind = tv_between_digests(da, db)
        stats_out[f"tv_{pair[0]}{pair[1]}"] = {"tv": tv, "estimator": kind}
        if tv >= tv_threshold:
            failures.append(
                f"client residual distinguishes store arms {pair}: tv={tv:.4f} ({kind})"
            )
    return AuditReport(test="db-privacy", scheme=scheme.name, params=params,
                       sessions=sessions, seed=seed, passed=not failures,
                       statistics=stats_out, failures=failures)


def measure_rate(scheme, sessions: int, seed: int) -> AuditReport:
    """Exact measured rate (desired bits / downloaded bits) vs capacity.

    A measured rate above capacity raises :class:`AuditInvariantError`
    immediately: no feasible scheme can beat the bound, so exceeding it can
    only mean the download accounting is broken.
    """
    _check_sessions(sessions)
    downloads = set()
    desired = set()
    randomness = set()
    failures = []
    for i in range(sessions):
        outcome = scheme.run_session(_session_rng(seed, i))
        downloads.add(outcome.downloaded_symbols)
        desired.add(outcome.desired_symbols)
        randomness.add(outcome.randomness_symbols)
        if not outcome.ok:
            failures.append(f"session {i} failed to decode ({outcome.note})")
    if len(downloads) != 1 or len(desired) != 1:
        failures.append(f"download counts vary across sessions: {sorted(downloads)}")
    rate = Fraction(min(desired), min(downloads))
    cap = scheme.protocol.capacity()
    if rate > cap:
        raise AuditInvariantError(
            f"measured rate {rate} exceeds capacity {cap} for {scheme.params.label()}"
        )
    if rate != cap:
        failures.append(f"measured rate {rate} below capacity {cap}")
    stats_out = {
        "downloaded_symbols": min(downloads),
        "desired_symbols": min(desired),
        "randomness_symbols": min(randomness),
    }
    return AuditReport(test="rate", scheme=scheme.name, params=scheme.params,
                       sessions=sessions, seed=seed, passed=not failures,
                       statistics=stats_out, failures=failures,
                       measured_rate=rate, capacity=cap)
