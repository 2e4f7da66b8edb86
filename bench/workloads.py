"""The benchmark's workloads: set-up, one measured stretch, and the checks.

``tpir-tcp`` and ``stpir-tcp`` drive ``python -m sidepir.cli serve``
subprocesses over loopback TCP with one closed-loop client: the next
retrieval starts only after the last one returned, and each retrieval opens
fresh connections because the protocol allows one session per connection.
``audit-mix`` runs the three audits in process, single-threaded.

Importing this module needs ``src/`` on ``sys.path``; ``run.py`` sets it up.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import sidepir
from sidepir import audit, client, wire
from sidepir.capacity import SchemeParams, capacity_stpir_psi, capacity_tpir_psi
from sidepir.errors import PirError
from sidepir.server import ServerCore
from sidepir.store import random_store
from sidepir.stpir_psi import make_sym_params
from sidepir.tpir_psi import minimum_field_width

import tracing

HOST = "127.0.0.1"
SERVER_START_TIMEOUT_S = 60.0
# The privacy audits are statistical tests with a designed false-alarm rate
# (about 0.2% per db-privacy call from its two chi-square tests at p = 0.001).
# Run hundreds of times on fresh seeds they would fail by chance, so they use
# the acceptance suite's fixed seed and give the same verdict on every run.
AUDIT_SEED = 20240
FULL_SESSIONS = 100_000


def tv_gate(sessions: int) -> float:
    """The 1e5-session TV gate of 0.01, scaled as in the acceptance suite."""
    return 0.01 * max(1.0, (FULL_SESSIONS / sessions) ** 0.5)


# A fixed CPU task, independent of the package, timed right after every
# measured operation. The host's CPU speed swings by up to 1.8 times within
# seconds, and this task slows with it, so an operation's time divided by the
# task's time is steady where the raw time is not.
_REF_RNG = np.random.default_rng(20240)
_REF_TABLE = _REF_RNG.integers(0, 2**16, size=2**17, dtype=np.uint32)
_REF_INDEX = _REF_RNG.integers(0, 2**17, size=20_000)


# The reference time at which ``setup_s`` is reported: each set-up's time is
# divided by the reference task's time around it and multiplied by this, so
# setup_s reads in seconds on a host that runs the task in 0.5 ms. Fixed, so
# that runs stay comparable.
REFERENCE_NOMINAL_S = 0.5e-3


def reference_seconds() -> float:
    """Seconds one run of the reference task takes now: a pure-Python loop
    and table gathers, the two kinds of work the package's kernels do."""
    t0 = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i
    for _ in range(4):
        total += int(_REF_TABLE[_REF_INDEX].sum())
    return time.perf_counter() - t0


def timed_setup(workload) -> tuple[float, float, float]:
    """One cold set-up: (server start s, warm-up s, the median reference-task
    time of three runs before it and three after it)."""
    refs = [reference_seconds() for _ in range(3)]
    start, warmup = workload.setup()
    refs += [reference_seconds() for _ in range(3)]
    return start, warmup, statistics.median(refs)


class Measurement:
    """One measured stretch. ``units`` normalises the per-layer numbers: one
    per retrieval on the TCP workloads, one per audit round on audit-mix."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.latencies: list[float] = []   # successful operations, s
        self.scaled: list[float] = []      # the same in reference-task units
        self.refs: list[float] = []        # reference-task times, s
        self.busy = 0.0                     # time inside measured operations
        self.busy_ref = 0.0                 # the same in reference-task units
        self.work = 0                       # retrievals, or audit sessions
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.returned = 0           # retrievals that returned a result
        self.upload_bytes = 0       # query payload bytes, all endpoints
        self.download_bytes = 0
        self.audit_time: dict[str, float] = {}
        self.audit_sessions: dict[str, int] = {}
        self.ops: list[int] = []    # tracer operation ids
        self.start = time.perf_counter()

    def running(self) -> bool:
        """False once the measured time is over; at least one operation runs."""
        return not (self.attempted and time.perf_counter() - self.start >= self.seconds)

    def finished(self, seconds: float) -> float:
        """Account one finished operation; returns its time in units of the
        reference task, timed now."""
        ref = reference_seconds()
        self.refs.append(ref)
        self.busy += seconds
        self.busy_ref += seconds / ref
        return seconds / ref

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(note)

    def ops_per_s(self) -> float:
        """Work per second spent in the measured operations."""
        return self.work / self.busy if self.busy else 0.0


def clear_package_caches() -> None:
    """Empty every memoised function in the package (skeletons, generators,
    fields), so that each set-up starts as cold as a fresh client."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if name != "sidepir" and not name.startswith("sidepir."):
            continue
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and id(obj) not in seen:
                seen.add(id(obj))
                clear()


def _parent_death_signal():
    """A pre-exec hook asking the kernel to stop a server when the benchmark
    process dies, so that no server outlives a killed run."""
    try:
        prctl = ctypes.CDLL("libc.so.6", use_errno=True).prctl
    except OSError:
        return None
    pr_set_pdeathsig = 1
    return lambda: prctl(pr_set_pdeathsig, signal.SIGTERM)


class ServerGroup:
    """N ``sidepir serve`` subprocesses on ephemeral loopback ports."""

    def __init__(self, root: Path, workdir: Path, store_path: Path, role: str,
                 secrets: list[bytes | None]):
        self.root, self.workdir = root, workdir
        self.store_path, self.role, self.secrets = store_path, role, secrets
        self.procs: list[subprocess.Popen] = []
        self.endpoints: list[tuple[str, int]] = []

    def start(self) -> None:
        preexec = _parent_death_signal()
        src = str(self.root / "src")
        for i, secret in enumerate(self.secrets):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            env.pop("SIDEPIR_SECRET", None)
            if secret is not None:
                env["SIDEPIR_SECRET"] = secret.hex()
            log = open(self.workdir / f"server-{i}.log", "wb")
            try:
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "sidepir.cli", "serve", "--host", HOST,
                     "--port", "0", "--store", str(self.store_path),
                     "--role", self.role],
                    cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
                    preexec_fn=preexec))
            finally:
                log.close()
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        self.endpoints = [self._await_ready(i, p, deadline)
                          for i, p in enumerate(self.procs)]

    def _await_ready(self, i: int, proc: subprocess.Popen,
                     deadline: float) -> tuple[str, int]:
        # the server prints its bound address once it is listening
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline().decode() if ready else ""
        host, _, port = line.strip().rpartition(" on ")[2].rpartition(":")
        if not port.isdigit():
            log = (self.workdir / f"server-{i}.log").read_text(errors="replace")
            raise RuntimeError(f"server {i} did not start: {line!r}\n{log}")
        return host, int(port)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started in the background by a
        # non-interactive shell ignores SIGINT, and so would its servers
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs, self.endpoints = [], []


@dataclass(frozen=True)
class TcpSpec:
    params: SchemeParams
    scheme: str  # "tpir" or "stpir"


TCP_SPECS = {
    "tpir-tcp": TcpSpec(SchemeParams(6, 2, 2, 1, w=16), "tpir"),
    "stpir-tcp": TcpSpec(SchemeParams(4096, 0, 2, 1, w=4), "stpir"),
}


class TcpWorkload:
    """Closed-loop retrievals against N server subprocesses."""

    spawns_servers = True
    setups = 5

    def __init__(self, name: str, root: Path, workdir: Path, seed: int,
                 fault: str | None):
        spec = TCP_SPECS[name]
        self.params, self.scheme = spec.params, spec.scheme
        self.fault = fault
        p = self.params
        self.rng = np.random.default_rng((seed, 1))
        if self.scheme == "tpir":
            fld = sidepir.standard_field(p.w or minimum_field_width(p))
            length = p.N ** p.K
            self.capacity = capacity_tpir_psi(p)
        else:
            fld = make_sym_params(p).field
            length = p.N - p.T
            self.capacity = capacity_stpir_psi(p, Fraction(p.T, p.N - p.T))
        self.store = random_store(fld, p.K, length, np.random.default_rng((seed, 2)))
        self.store_path = workdir / "store.pir"
        wire.write_store(self.store_path, self.store)
        self.digest = hashlib.sha256(wire.store_bytes(self.store)).hexdigest()
        secret = None
        secrets: list[bytes | None] = [None] * p.N
        if self.scheme == "stpir":
            secret = hashlib.sha256(b"sidepir-bench-secret-%d" % seed).digest()
            secrets = [secret] * p.N
            if fault == "wrong-secret":
                secrets[-1] = hashlib.sha256(secret).digest()
        self.secret = secret
        self.servers = ServerGroup(root, workdir, self.store_path, self.scheme, secrets)
        self.replay_core: ServerCore | None = None

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """(server start, warm-up) seconds for one cold set-up."""
        self.servers.stop()
        clear_package_caches()
        t0 = time.perf_counter()
        self.servers.start()
        t1 = time.perf_counter()
        thetas = range(1, self.params.K + 1) if self.scheme == "tpir" else (1,)
        for theta in thetas:
            side_idx = [i for i in range(1, self.params.K + 1) if i != theta]
            self._retrieve(theta, side_idx[: self.params.M], seed=theta)
        return t1 - t0, time.perf_counter() - t1

    def close(self) -> None:
        self.servers.stop()

    # -- one retrieval ---------------------------------------------------------

    def _draw(self) -> tuple[int, list[int], int]:
        p = self.params
        theta = int(self.rng.integers(1, p.K + 1))
        others = [i for i in range(1, p.K + 1) if i != theta]
        side_idx = sorted(int(i) for i in
                          self.rng.choice(others, size=p.M, replace=False)) if p.M else []
        return theta, side_idx, int(self.rng.integers(0, 2**63 - 1))

    def _side(self, side_idx: list[int], corrupt: bool) -> dict[int, np.ndarray]:
        side = self.store.side_information(side_idx)
        if corrupt and side:
            first = min(side)
            side[first] = side[first].copy()
            side[first][0] ^= 1
        return side

    def _retrieve(self, theta: int, side_idx: list[int], seed: int,
                  corrupt: bool = False):
        """(seconds from connect to decoded message, result)."""
        side = self._side(side_idx, corrupt)
        transports = []
        t0 = time.perf_counter()
        try:
            for host, port in self.servers.endpoints:
                transports.append(client.TcpTransport(host, port))
            result = client.retrieve(transports, self.params, theta, side,
                                     seed=seed, scheme=self.scheme)
            latency = time.perf_counter() - t0
        finally:
            for t in transports:
                t.close()
        return latency, result

    def _check(self, theta: int, result) -> str | None:
        if not np.array_equal(result.message, self.store.message(theta)):
            return f"theta={theta}: decoded message differs from the stored one"
        if not (result.rate == result.capacity == self.capacity):
            return f"theta={theta}: rate {result.rate} != capacity {self.capacity}"
        if result.store_digest != self.digest:
            return f"theta={theta}: replica digest {result.store_digest} != {self.digest}"
        return None

    def _replay(self, tracer: tracing.Tracer, result) -> str | None:
        """Feed the recorded PARAMS and QUERY payloads to an in-process
        ServerCore over the same store, one span per endpoint, and check that
        it answers what the server process answered."""
        if self.replay_core is None:
            self.replay_core = ServerCore(self.store, role=self.scheme,
                                          secret=self.secret)
        for t in result.transcripts:
            with tracer.span("bench.replay_endpoint"):
                session = self.replay_core.new_session()
                _, params_reply = self.replay_core.handle_frame(
                    session, wire.TYPE_PARAMS, t.params_sent)
                _, answer = self.replay_core.handle_frame(
                    session, wire.TYPE_QUERY, t.query_sent)
            if (params_reply, answer) != (t.params_received, t.answer_received):
                return f"endpoint {t.endpoint}: replayed reply differs from the server's"
        return None

    def measure(self, seconds: float, tracer: tracing.Tracer | None) -> Measurement:
        m = Measurement(seconds)
        corrupt = self.fault == "corrupt-cache"
        while m.running():
            theta, side_idx, seed = self._draw()
            m.attempted += 1
            m.units += 1
            try:
                if tracer is None:
                    latency, result = self._retrieve(theta, side_idx, seed, corrupt)
                    problem = self._check(theta, result)
                else:
                    with tracer.operation("bench.retrieval") as op:
                        latency, result = self._retrieve(theta, side_idx, seed, corrupt)
                        problem = self._replay(tracer, result)
                    m.ops.append(op)
                    problem = problem or self._check(theta, result)
            except (PirError, OSError) as exc:
                m.fail(f"theta={theta}: {type(exc).__name__}: {exc}")
                continue
            scaled = m.finished(latency)
            m.work += 1
            m.returned += 1
            m.upload_bytes += sum(len(t.query_sent) for t in result.transcripts)
            m.download_bytes += sum(len(t.answer_received) for t in result.transcripts)
            if problem:
                m.fail(problem)
                continue
            m.latencies.append(latency)
            m.scaled.append(scaled)
        return m

    def controls(self, m: Measurement) -> None:
        """The TCP workloads have no negative controls."""


class AuditMix:
    """Rounds of the three audits, in process and single-threaded.

    One round: ``audit_user_privacy`` on LayeredScheme(3,2,3,2),
    ``audit_db_privacy`` on SymmetricScheme(3,0,3,1), then single-session
    ``audit_correctness`` calls on LayeredScheme(3,2,3,2), each timed as one
    in-process retrieval round trip.
    """

    spawns_servers = False
    setups = 15  # each is short, so more of them steady the median
    FULL = {"user_privacy": 512, "db_privacy": 256, "correctness": 32}
    SMOKE = {"user_privacy": 64, "db_privacy": 64, "correctness": 4}
    CONTROL_SESSIONS = 64

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.rng = np.random.default_rng((seed, 1))
        self.sizes = self.SMOKE if smoke else self.FULL
        self.layered_params = SchemeParams(3, 2, 3, 2)
        self.symmetric_params = SchemeParams(3, 0, 3, 1)

    def setup(self) -> tuple[float, float]:
        clear_package_caches()
        t0 = time.perf_counter()
        self.layered = audit.LayeredScheme(self.layered_params)
        self.symmetric = audit.SymmetricScheme(self.symmetric_params)
        # fills the skeleton and generator caches; the verdicts of these tiny
        # runs mean nothing and are not checked
        audit.audit_user_privacy(self.layered, 4, AUDIT_SEED)
        audit.audit_db_privacy(self.symmetric, 4, AUDIT_SEED)
        audit.audit_correctness(self.layered, 1, AUDIT_SEED)
        return 0.0, time.perf_counter() - t0

    def close(self) -> None:
        pass

    def _audit(self, m: Measurement, tracer, kind: str, call, sessions: int):
        t0 = time.perf_counter()
        if tracer is None:
            report = call()
        else:
            with tracer.operation(f"bench.{kind}") as op:
                report = call()
            m.ops.append(op)
        spent = time.perf_counter() - t0
        m.attempted += 1
        scaled = m.finished(spent)
        m.work += sessions
        m.audit_time[kind] = m.audit_time.get(kind, 0.0) + spent
        m.audit_sessions[kind] = m.audit_sessions.get(kind, 0) + sessions
        if not report.passed:
            m.fail(f"{kind}: {report.failures[:2]}")
        return spent, scaled, report

    def measure(self, seconds: float, tracer: tracing.Tracer | None) -> Measurement:
        m = Measurement(seconds)
        n_up, n_db = self.sizes["user_privacy"], self.sizes["db_privacy"]
        k_up = self.layered_params.K
        while m.running():
            self._audit(m, tracer, "user_privacy",
                        lambda: audit.audit_user_privacy(
                            self.layered, n_up, AUDIT_SEED, tv_threshold=tv_gate(n_up)),
                        n_up * k_up)
            self._audit(m, tracer, "db_privacy",
                        lambda: audit.audit_db_privacy(
                            self.symmetric, n_db, AUDIT_SEED, tv_threshold=tv_gate(n_db)),
                        3 * n_db)
            for _ in range(self.sizes["correctness"]):
                seed = int(self.rng.integers(0, 2**63 - 1))
                spent, scaled, report = self._audit(
                    m, tracer, "correctness",
                    lambda: audit.audit_correctness(self.layered, 1, seed), 1)
                if report.passed:
                    m.latencies.append(spent)
                    m.scaled.append(scaled)
            m.units += 1
        return m

    def controls(self, m: Measurement) -> None:
        """Untimed negative controls: each must be rejected by its audit."""
        n = self.CONTROL_SESSIONS
        direct = audit.audit_user_privacy(
            audit.DirectDownloadScheme(self.layered_params), n, self.seed,
            tv_threshold=tv_gate(n))
        unmasked = audit.audit_db_privacy(
            audit.SymmetricScheme(self.symmetric_params, masked=False), n,
            self.seed, tv_threshold=tv_gate(n))
        for name, report in (("direct-download", direct), ("unmasked-symmetric", unmasked)):
            m.attempted += 1
            if report.passed:
                m.fail(f"negative control {name} passed its audit")
