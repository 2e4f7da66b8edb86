"""Replicated message store: K equal-length symbol vectors.

Every database holds an identical store. The layered scheme uses messages of
length N^K symbols; the symmetric scheme uses N - T. The length is carried
explicitly so both schemes share one persistence format. Leading axes, if
any, hold one store per session, for the audits' batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSideInformationError, ParameterError
from .field import GF


@dataclass(frozen=True)
class MessageStore:
    field: GF
    messages: np.ndarray  # shape (..., K, L)

    def __post_init__(self):
        if self.messages.ndim < 2:
            raise ParameterError("store must be a (..., K, L) symbol array")

    @property
    def num_messages(self) -> int:
        return self.messages.shape[-2]

    @property
    def message_length(self) -> int:
        return self.messages.shape[-1]

    def message(self, index: int) -> np.ndarray:
        """Message by 1-based index."""
        if not 1 <= index <= self.num_messages:
            raise ParameterError(f"message index {index} outside 1..{self.num_messages}")
        return self.messages[..., index - 1, :]

    def side_information(self, s) -> dict[int, np.ndarray]:
        """The cached subset {index: message} for a set of 1-based indices."""
        return {i: self.message(i) for i in sorted(s)}


def random_store(field: GF, num_messages: int, length: int,
                 rng: np.random.Generator) -> MessageStore:
    if num_messages < 1 or length < 1:
        raise ParameterError("store needs at least one message of positive length")
    data = field.random_symbols(rng, (num_messages, length))
    data.flags.writeable = False
    return MessageStore(field=field, messages=data)


def check_side(side, params, theta: int, field: GF,
               shape: tuple[int, ...] | None) -> dict[int, np.ndarray]:
    """A cache as field symbols, checked before any query leaves: M of the K
    messages but the desired one, each of ``shape`` (or, where it is None, of
    one length), of symbols in range before a cast to the field's dtype."""
    k, m = params.K, params.M
    if not 1 <= theta <= k:
        raise ParameterError(f"desired index {theta} outside 1..{k}")
    side = {int(i): np.asarray(v) for i, v in side.items()}
    if len(side) != m:
        raise InvalidSideInformationError(f"cache holds {len(side)} messages, not M={m}")
    if theta in side:
        raise InvalidSideInformationError("the desired message cannot be cached")
    for i, vec in side.items():
        shape = shape or (vec.size,)
        if not 1 <= i <= k:
            raise InvalidSideInformationError(f"cached index {i} outside 1..{k}")
        if vec.shape != shape:
            raise InvalidSideInformationError(f"cached message {i} is {vec.shape}, not {shape}")
        if not field.contains(vec):
            raise InvalidSideInformationError(f"cached message {i} holds non-field symbols")
    return {i: vec.astype(field.dtype) for i, vec in side.items()}
