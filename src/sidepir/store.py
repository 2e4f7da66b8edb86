"""Replicated message store: K equal-length symbol vectors.

Every database holds an identical store. The layered scheme uses messages of
length N^K symbols; the symmetric scheme uses N - T. The length is carried
explicitly so both schemes share one persistence format. Leading axes, if
any, hold one store per session, for the audits' batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
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
