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


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


def test_bench_hooks_resolve_on_the_owners_they_patch():
    missing = set()
    for _, modname, path, _, _ in _hooks():
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
