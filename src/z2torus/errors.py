"""Error types shared across the package.

InputError: the supplied data is malformed or fails validation.
PreconditionError: the data is fine but the requested computation's
mathematical precondition does not hold (wrong codimension, no
m-involution, skeleton not n-valent, ...).
"""

from __future__ import annotations

from collections.abc import Sequence


class InputError(ValueError):
    def __init__(self, messages: Sequence[str] | str):
        # a copy: the findings given may be the lists kept on what they describe
        self.messages = [messages] if isinstance(messages, str) else list(messages)
        super().__init__("; ".join(self.messages))


class PreconditionError(ValueError):
    pass
