"""The benchmark's traced run hooks package names: each one that no longer
resolves reads 0 in its per-layer metric, so the set of stale hooks is
pinned here, and a change that renames a hooked name fails this test
instead of silently zeroing a metric."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# stale hooks, whose targets are gone; the benchmark's next change retires them
STALE = {
    "client.TcpTransport.request",
    "coding.erasure_decode",
    "coding.sample_full_rank_batched",
    "linalg._gauss_jordan",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_hooks_resolve_on_the_owners_they_patch():
    missing = set()
    for _, modname, path, _, _ in _tracing().HOOKS:
        owner = importlib.import_module(modname)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or getattr(owner, attr, None) is None:
            missing.add(f"{modname.removeprefix('sidepir.')}.{path}")
        elif owner_path:
            # the hook reads and restores the class's own attribute
            assert attr in vars(owner), f"{modname}.{path} is inherited, not defined on its class"
    assert missing == STALE


def test_traced_retrievals_reach_every_scheme_hook():
    """Resolving is not enough: a hooked name that is no longer called reads
    0 as well. In-process retrievals of each answer form (layered compressed
    and raw, symmetric, sum) under the benchmark's hooks record a span for
    every scheme, server and wire hook."""
    import numpy as np

    from sidepir import client
    from sidepir.capacity import SchemeParams
    from sidepir.field import standard_field
    from sidepir.store import random_store

    tracing = _tracing()
    tracer = tracing.Tracer()
    f4 = standard_field(4)
    layered = random_store(f4, 3, 8, np.random.default_rng(1))
    symmetric = random_store(f4, 3, 2, np.random.default_rng(2))
    runs = [(layered, SchemeParams(3, 1, 2, 1), "tpir", {3}, False),
            (layered, SchemeParams(3, 1, 2, 1), "tpir", {3}, True),
            (symmetric, SchemeParams(3, 0, 3, 1), "stpir", set(), False),
            (symmetric, SchemeParams(3, 2, 3, 1), "stpir", {2, 3}, False)]
    hooks = tracing.Instrumentation(tracer).install()
    try:
        for store, params, role, cached, raw in runs:
            sims = client.local_simulator(store, params.N, role=role, secret=bytes(32))
            result = client.retrieve(sims, params, 1, store.side_information(cached),
                                     seed=3, scheme=role, raw=raw)
            assert np.array_equal(result.message, store.message(1))
    finally:
        hooks.uninstall()
    wanted = {name for name, *_ in tracing.HOOKS
              if name.startswith(("tpir_psi.", "stpir_psi.", "wire."))
              or name == "server.handle_frame"}
    assert wanted - {span[tracing.NAME] for span in tracer.spans} == set()
