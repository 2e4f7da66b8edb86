"""sidepir benchmark: one command for every workload, untraced or traced.

    python3 bench/run.py --workload tpir-tcp --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
they are its per-layer metrics. The lines before it give the machine and code
facts and every metric by name with its unit, including the per-workload
names (``retrievals_per_s``, ``upload_bytes_per_retrieval``,
``failed_fraction``, ``audit_*_sps``, ...).

A traced run measures half of ``--seconds`` untraced and half traced, so the
difference between the halves is the tracing overhead, and writes its spans
to ``.bench_out/trace-<workload>-seed<seed>.json``.

Any failed check (wrong message, rate below capacity, replica digests that
differ, an audit that fails, a negative control that passes) is counted in
``failed`` and makes the command exit with 1. A set-up that cannot run exits
with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import tracing
from tracing import END, NAME, OP, PARENT, START

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
# the per-layer metrics of BENCHMARK.json that are summed span durations
SPAN_METRICS = (
    "client.connect", "tpir_psi.build_plan", "tpir_psi.database_queries",
    "tpir_psi.decode", "tpir_psi.answer_raw", "tpir_psi.compress",
    "stpir_psi.queries_from_masks", "stpir_psi.sym_decode",
    "stpir_psi.derive_common_randomness", "stpir_psi.sym_answer",
    "server.handle_frame", "wire.parse_query", "wire.serialize_answer",
    "wire.serialize_query", "wire.parse_answer", "linalg.matmul",
    "linalg.solve", "linalg.rank_batched", "coding.erasure_decode",
    "audit.view_digests", "audit.tv", "audit.residual_session",
    "audit.chi_square", "audit.run_session",
)
SELF_MODULES = ("client", "server", "wire", "linalg", "coding", "tpir_psi",
                "stpir_psi", "audit")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("tpir-tcp", "stpir-tcp", "audit-mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one set-up and tiny audits (for the smoke test)")
    p.add_argument("--fault", choices=("corrupt-cache", "wrong-secret"),
                   help="inject a fault the checks must catch (for the smoke test)")
    args = p.parse_args(argv)
    target = {"corrupt-cache": "tpir-tcp", "wrong-secret": "stpir-tcp"}.get(args.fault)
    if target and args.workload != target:
        p.error(f"--fault {args.fault} applies to {target} only")
    return args


def machine_facts(seed: int, workload: str) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    src_lines = sum(len(f.read_text().splitlines())
                    for f in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "network": "loopback 127.0.0.1 only; no physical link is measured",
        "src_lines": src_lines,
    }


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0 for an empty sample."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(m, setup_s: float) -> dict:
    """The gated metrics. Operation times are in units of the reference task
    timed right after each operation (``ref``): the host's CPU speed swings by
    up to 1.8 times within seconds, and the ratio cancels most of it where
    raw times cannot be compared from run to run."""
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ref": (quantile(m.scaled, 0.5), "ref"),
        "latency_p90_ref": (quantile(m.scaled, 0.9), "ref"),
        "ops_per_kref": (1e3 * m.work / m.busy_ref if m.busy_ref else 0.0, "1/kref"),
        "client_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def workload_named(workload: str, m, server_rss: float,
                   failed_fraction: float) -> dict:
    """The metrics printed besides the gated ones: the raw rate and
    latencies, the reference task's time, and the names only some workloads
    are described by."""
    out = {
        "ops_per_s": (m.ops_per_s(), "1/s"),
        "latency_p50_ms": (1e3 * quantile(m.latencies, 0.5), "ms"),
        "latency_p90_ms": (1e3 * quantile(m.latencies, 0.9), "ms"),
        "reference_ms": (1e3 * quantile(m.refs, 0.5), "ms"),
    }
    if workload == "audit-mix":
        out.update({f"audit_{k}_sps": (m.audit_sessions[k] / m.audit_time[k], "1/s")
                    for k in ("user_privacy", "db_privacy", "correctness")})
    else:
        out.update({
            "retrievals_per_s": (m.ops_per_s(), "1/s"),  # ops_per_s by its name
            "upload_bytes_per_retrieval": (m.upload_bytes / max(1, m.returned), "B"),
            "server_peak_rss_mb": (server_rss, "MB"),
        })
    out["failed_fraction"] = (failed_fraction, "1")
    return out


def per_layer(tracer, plain, traced, setups, server_rss) -> dict:
    n = max(1, traced.units)
    agg = tracer.totals(traced.ops)
    inc, slf, calls, counters = (agg["inclusive"], agg["self"], agg["calls"],
                                 agg["counters"])
    out = {f"{name}_s": (inc[name] / n, "s") for name in SPAN_METRICS}
    for name in ("linalg.matmul", "linalg.solve", "linalg.rank_batched"):
        out[f"{name}_calls"] = (calls[name] / n, "count")
    out["linalg.gauss_jordan_self_s"] = (slf["linalg.gauss_jordan"] / n, "s")
    out["linalg.field_mults"] = (counters["linalg.field_mults"] / n, "count")
    candidates = counters["coding.full_rank_candidates"]
    out["coding.full_rank_candidates"] = (candidates / n, "count")
    out["coding.full_rank_acceptance"] = (
        counters["coding.full_rank_accepted"] / candidates if candidates else 0.0, "ratio")
    out["field.unpack_calls"] = (counters["field.unpack_calls"] / n, "count")
    for module in SELF_MODULES:
        out[f"{module}.self_s"] = (
            sum(v for k, v in slf.items() if k.split(".")[0] == module) / n, "s")

    # exchange: first request sent to last answer read, per retrieval. The
    # run is pinned to one CPU, so the endpoints' server work runs one after
    # the other: the transport overhead subtracts both endpoints' replayed
    # server time, and no overlap between endpoints can show.
    ops = set(traced.ops)
    requests = {}
    server_by_endpoint = {}
    for s in tracer.spans:
        if s[OP] not in ops:
            continue
        if s[NAME] == "client.request":
            lo, hi = requests.get(s[OP], (s[START], s[END]))
            requests[s[OP]] = (min(lo, s[START]), max(hi, s[END]))
        elif s[NAME] == "server.handle_frame":
            server_by_endpoint[s[PARENT]] = (server_by_endpoint.get(s[PARENT], 0.0)
                                             + s[END] - s[START])
    server = {}
    for parent, spent in server_by_endpoint.items():
        op = tracer.spans[parent][OP]
        server[op] = server.get(op, 0.0) + spent
    exchange = sum(hi - lo for lo, hi in requests.values())
    overhead = sum(hi - lo - server.get(op, 0.0) for op, (lo, hi) in requests.items())
    out["client.exchange_s"] = (exchange / n, "s")
    out["client.transport_overhead_s"] = (overhead / n, "s")
    out["wire.upload_bytes"] = (traced.upload_bytes / max(1, traced.returned), "B")
    out["wire.download_bytes"] = (traced.download_bytes / max(1, traced.returned), "B")
    out["server.peak_rss_mb"] = (server_rss, "MB")
    out["setup.server_start_s"] = (statistics.median(s[0] for s in setups), "s")
    out["setup.warmup_s"] = (statistics.median(s[1] for s in setups), "s")
    for kind in ("user_privacy", "db_privacy", "correctness"):
        spent = plain.audit_time.get(kind)
        out[f"audit.{kind}_sps"] = (
            plain.audit_sessions[kind] / spent if spent else 0.0, "1/s")

    out["trace.latency_p50_overhead_ms"] = (
        1e3 * (quantile(traced.latencies, 0.5) - quantile(plain.latencies, 0.5)), "ms")
    out["trace.latency_p50_overhead_ref"] = (
        quantile(traced.scaled, 0.5) - quantile(plain.scaled, 0.5), "ref")
    out["trace.ops_per_s_overhead"] = (traced.ops_per_s() - plain.ops_per_s(), "1/s")
    return out


def write_trace(path: Path, facts, metrics, tracer, missing) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"facts": facts,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "missing_hooks": missing,
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans,
                   "counters": [[op, name, value]
                                for (op, name), value in tracer.counters.items()]},
                  fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sidepir" / "__init__.py").is_file():
        print(f"bench: no sidepir package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the client and (by inheritance) the servers, set before
    # numpy starts its threads. On a shared 2-vCPU guest, a retrieval's
    # ping-pong across both vCPUs waits on the hypervisor at every wake-up:
    # latency doubled and swung by half from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import workloads

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = instrumentation = None
    wl = None
    try:
        if args.workload == "audit-mix":
            wl = workloads.AuditMix(args.seed, args.smoke)
        else:
            wl = workloads.TcpWorkload(args.workload, ROOT, workdir, args.seed, args.fault)
        setups = [workloads.timed_setup(wl) for _ in range(1 if args.smoke else wl.setups)]
        if args.trace:
            plain = wl.measure(args.seconds / 2, None)
            tracer = tracing.Tracer()
            instrumentation = tracing.Instrumentation(tracer).install()
            try:
                traced = wl.measure(args.seconds / 2, tracer)
            finally:
                instrumentation.uninstall()
            checked = [plain, traced]
        else:
            plain = wl.measure(args.seconds, None)
            checked = [plain]
        wl.controls(plain)
    except Exception:
        # a run that cannot finish reports why and prints no result
        traceback.print_exc()
        return 2
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    # the servers are the only children worth measuring; they have been waited for
    server_rss = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
                  if wl.spawns_servers else 0.0)
    setup_s = workloads.REFERENCE_NOMINAL_S * statistics.median(
        (start + warmup) / ref for start, warmup, ref in setups)

    facts = machine_facts(args.seed, args.workload)
    attempted = sum(m.attempted for m in checked)
    failed = sum(m.failed for m in checked)
    e2e = end_to_end(plain, setup_s)
    named = {**e2e, **workload_named(args.workload, plain, server_rss, failed / attempted)}
    named["setup_raw_s"] = (statistics.median(a + b for a, b, _ in setups), "s")
    if args.trace:
        metrics = per_layer(tracer, plain, traced, setups, server_rss)
    else:
        metrics = e2e

    print(f"facts {json.dumps(facts, sort_keys=True)}")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"metric {name} {value!r} {unit}")
    for m in checked:
        for note in m.failures:
            print(f"failure {note}")
    if args.trace:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, facts, metrics, tracer, instrumentation.missing)
        print(f"trace {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
