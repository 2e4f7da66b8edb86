"""Private information retrieval from replicated databases, with cached
side information, collusion resistance, and an optional symmetric
(database-private) mode, plus the audits that verify correctness, privacy
and that measured rates meet the capacity formulas exactly.

Layout:
  field, linalg, coding   symbol arithmetic and MDS machinery
  capacity                exact closed forms (the oracle everything is checked against)
  tpir_psi                the layered scheme with redundancy removal, as a protocol object
  stpir_psi               the symmetric variant and the all-but-one-cached sum, as protocols
  audit                   correctness / privacy / rate audits, run on the protocol objects
  wire, server, client    framed TCP protocol, store files, retrieval by the protocols
  cli                     the ``sidepir`` command
"""

from .capacity import (
    CountProfile,
    SchemeParams,
    capacity_stpir_psi,
    capacity_tpir_psi,
    count_profile,
    desk_grid,
    psi,
)
from .field import GF, standard_field
from .store import MessageStore, random_store

__all__ = [
    "CountProfile",
    "GF",
    "MessageStore",
    "SchemeParams",
    "capacity_stpir_psi",
    "capacity_tpir_psi",
    "count_profile",
    "desk_grid",
    "psi",
    "random_store",
    "standard_field",
]

__version__ = "0.1.0"
