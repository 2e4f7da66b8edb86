"""Command-line interface.

Subcommands:
  capacity   closed-form capacity for a parameter point
  gen-store  write a random replicated store (and optional side files)
  serve      run one database server
  retrieve   fetch a message from N running servers
  audit      run correctness / user-privacy / db-privacy / rate audits;
             ``audit rate --grid [SPEC] --csv PATH`` writes the
             rate-vs-capacity table over a parameter grid as CSV

Exit codes: 0 success, 1 failed audit, retrieval or I/O, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import client as client_mod
from . import wire
from .capacity import (
    SchemeParams,
    capacity_stpir_psi,
    capacity_tpir_psi,
    desk_grid,
)
from .errors import PirError
from .server import DatabaseServer
from .store import random_store
from .stpir_psi import session_protocol

SECRET_ENV = "SIDEPIR_SECRET"


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--K", type=int, required=True, help="number of messages")
    parser.add_argument("--M", type=int, required=True, help="number of cached messages")
    parser.add_argument("--N", type=int, required=True, help="number of databases")
    parser.add_argument("--T", type=int, required=True, help="collusion threshold")
    parser.add_argument("--w", type=int, choices=(4, 8, 16), default=None,
                        help="symbol width in bits (default: smallest adequate)")


def _params(args) -> SchemeParams:
    return SchemeParams(K=args.K, M=args.M, N=args.N, T=args.T, w=args.w)


def _indices(text: str) -> list[int]:
    """``I,J,...`` as sorted 1-based message indices."""
    return sorted(int(i) for i in text.split(","))


def _load_secret(args) -> bytes | None:
    if getattr(args, "secret_file", None):
        with open(args.secret_file, "rb") as fh:
            blob = fh.read().strip()
        try:
            return bytes.fromhex(blob.decode())
        except (UnicodeDecodeError, ValueError):
            return blob
    env = os.environ.get(SECRET_ENV)
    try:
        return bytes.fromhex(env) if env else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{SECRET_ENV} must be hex") from None


def cmd_capacity(args) -> int:
    params = _params(args)
    if args.symmetric:
        if args.rho is None:
            print("--symmetric requires --rho", file=sys.stderr)
            return 2
        print(capacity_stpir_psi(params, args.rho))
    else:
        print(capacity_tpir_psi(params))
    return 0


def cmd_gen_store(args) -> int:
    params = _params(args)
    protocol = session_protocol(args.scheme, params)
    field, length = protocol.field, protocol.message_length
    if length < 1:
        raise PirError("symmetric store needs T < N")
    store = random_store(field, params.K, length, np.random.default_rng(args.seed))
    side = store.side_information(args.extract_side or ())  # before any write
    wire.write_store(args.out, store)
    print(f"wrote {args.out}: K={params.K} L={length} w={field.w}")
    if args.extract_side:
        side_store = type(store)(field=field,
                                 messages=np.stack([side[i] for i in args.extract_side]))
        wire.write_store(args.side_out, side_store)
        print(f"wrote {args.side_out}: cached messages {args.extract_side}")
    return 0


def cmd_serve(args) -> int:
    secret = _load_secret(args)
    store = wire.read_store(args.store)
    server = DatabaseServer(store, role=args.role, secret=secret,
                            host=args.host, port=args.port)
    print(f"serving {args.store} as {args.role} on {server.address[0]}:{server.port}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def _load_side(args):
    if not args.S:
        return {}
    side_store = wire.read_store(args.side_file)
    if side_store.num_messages != len(args.S):
        raise PirError(
            f"side file holds {side_store.num_messages} messages, --S names {len(args.S)}"
        )
    return {i: side_store.messages[pos] for pos, i in enumerate(args.S)}


def cmd_retrieve(args) -> int:
    params = _params(args)
    side = _load_side(args)
    endpoints = client_mod.tcp_endpoints(args.endpoints)
    transports = [client_mod.TcpTransport(h, p) for h, p in endpoints]
    try:
        result = client_mod.retrieve(transports, params, args.theta, side,
                                     seed=args.seed, scheme=args.scheme,
                                     raw=args.raw)
    finally:
        for t in transports:
            t.close()
    with open(args.out, "wb") as fh:
        fh.write(session_protocol(args.scheme, params, args.raw).field.pack(result.message))
    match = "matches" if result.rate == result.capacity else "below"
    print(f"retrieved message {args.theta} -> {args.out}")
    print(f"downloaded {result.downloaded_symbols} symbols "
          f"({result.downloaded_bits} bits), form={result.form}")
    print(f"rate {result.rate} {match} capacity {result.capacity}")
    return 0


def cmd_audit(args) -> int:
    from . import audit as audit_mod  # only the audit command loads the audits

    reports = []
    if args.grid is not None:
        for params in args.grid:
            schemes = [audit_mod.LayeredScheme(params)]
            if params.K >= 2 and not params.all_but_one_cached and params.T < params.N:
                schemes.append(audit_mod.SymmetricScheme(params))
            reports += [audit_mod.measure_rate(scheme, sessions=min(args.sessions, 5),
                                               seed=args.seed) for scheme in schemes]
    else:
        params = _params(args)
        if args.scheme == "tpir":
            scheme = audit_mod.LayeredScheme(params)
        else:
            secret = _load_secret(args) or audit_mod.AUDIT_SECRET
            scheme = audit_mod.SymmetricScheme(params, secret=secret)
        if args.test == "correctness":
            reports.append(audit_mod.audit_correctness(scheme, args.sessions, args.seed))
        elif args.test == "user-privacy":
            reports.append(audit_mod.audit_user_privacy(scheme, args.sessions, args.seed))
        elif args.test == "db-privacy":
            reports.append(audit_mod.audit_db_privacy(scheme, args.sessions, args.seed))
        elif args.test == "rate":
            reports.append(audit_mod.measure_rate(scheme, args.sessions, args.seed))
    for rep in reports:
        print(rep.summary())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["K", "M", "N", "T", "scheme", "rate_num", "rate_den",
                             "capacity_num", "capacity_den", "match"])
            writer.writerows(
                [r.params.K, r.params.M, r.params.N, r.params.T, r.scheme,
                 r.measured_rate.numerator, r.measured_rate.denominator,
                 r.capacity.numerator, r.capacity.denominator,
                 r.measured_rate == r.capacity] for r in reports)
        print(f"wrote {args.csv}")
    return 0 if all(r.passed for r in reports) else 1


def _parse_grid(spec: str) -> list[SchemeParams]:
    """``K<=k,N<=n`` (either part optional) as its nonempty desk grid."""
    bounds = {"K": 4, "N": 3}
    for part in spec.split(","):
        name, sep, value = part.replace(" ", "").upper().partition("<=")
        if name not in bounds or not sep:
            raise argparse.ArgumentTypeError(
                f"bad grid component {part!r}; want e.g. 'K<=4,N<=3'")
        bounds[name] = int(value)
    grid = desk_grid(bounds["K"], bounds["N"])
    if not grid:
        raise argparse.ArgumentTypeError(f"grid {spec!r} holds no parameter point")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidepir",
        description="Private retrieval from replicated databases with cached "
                    "side information: capacity-achieving schemes and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="print the closed-form capacity")
    _add_params(p)
    p.add_argument("--symmetric", action="store_true",
                   help="symmetric variant (database privacy)")
    p.add_argument("--rho", type=Fraction, default=None,
                   help="shared randomness per desired symbol, e.g. 1/2")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("gen-store", help="generate a random replicated store")
    _add_params(p)
    p.add_argument("--scheme", choices=("tpir", "stpir"), default="tpir")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--extract-side", type=_indices, default=None, metavar="I,J",
                   help="also write these cached messages to --side-out")
    p.add_argument("--side-out", default=None)
    p.set_defaults(func=cmd_gen_store)

    p = sub.add_parser("serve", help="run one database server")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--store", required=True)
    p.add_argument("--role", choices=("tpir", "stpir"), default="tpir")
    p.add_argument("--secret-file", default=None,
                   help=f"shared secret (or set {SECRET_ENV} as hex)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("retrieve", help="retrieve one message from N servers")
    _add_params(p)
    p.add_argument("--endpoints", required=True, help="host:port,host:port,...")
    p.add_argument("--theta", type=int, required=True, help="desired message index")
    p.add_argument("--S", type=_indices, default=None,
                   help="cached message indices, e.g. 2,3")
    p.add_argument("--side-file", default=None,
                   help="store file holding the cached messages (sorted by index)")
    p.add_argument("--seed", type=int, default=None,
                   help="replay a fixed draw: a seeded retrieval is reproducible, so it is "
                        "not private (default: randomness from the operating system)")
    p.add_argument("--out", required=True)
    p.add_argument("--scheme", choices=("tpir", "stpir"), default="tpir")
    p.add_argument("--raw", action="store_true",
                   help="tpir only: ship raw answers (no redundancy removal); also arms "
                        "the cached-value consistency check")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("audit", help="run an audit and report pass/fail")
    p.add_argument("test", choices=("correctness", "user-privacy", "db-privacy", "rate"))
    p.add_argument("--K", type=int)
    p.add_argument("--M", type=int, default=0)
    p.add_argument("--N", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--w", type=int, choices=(4, 8, 16), default=None)
    p.add_argument("--scheme", choices=("tpir", "stpir"), default="tpir")
    p.add_argument("--sessions", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="also write reports as JSON")
    p.add_argument("--grid", nargs="?", type=_parse_grid, const="K<=4,N<=3",
                   default=None, metavar="SPEC",
                   help="rate only: sweep a desk grid, e.g. 'K<=4,N<=3' (the default)")
    p.add_argument("--csv", default=None,
                   help="rate only: also write the rate-vs-capacity table as CSV")
    p.add_argument("--secret-file", default=None)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "audit":
        if args.test != "rate" and (args.grid is not None or args.csv):
            parser.error("--grid and --csv apply to the rate audit only")
        missing = [f"--{f}" for f in ("K", "N", "T") if getattr(args, f) is None]
        if args.grid is None and missing:
            parser.error(f"audit needs {' '.join(missing)} (or rate --grid)")
        if args.sessions < 1:
            parser.error("--sessions must be at least 1")
    if args.command == "gen-store" and args.extract_side and not args.side_out:
        parser.error("--extract-side needs --side-out")
    if args.command == "retrieve" and args.S and not args.side_file:
        parser.error("--S needs --side-file")
    if args.command == "retrieve" and args.raw and args.scheme == "stpir":
        parser.error("--raw applies to --scheme tpir only")
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except (PirError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
