"""Standard-library-only pieces that ``rmcover.cli`` uses before a command
loads numpy: the default search budget, the errors raised when a window or
a code is too large to enumerate, and atomic text writes.
"""

import contextlib
import os

DEFAULT_ITER_BUDGET = 4096  # candidate checks of one equivalence search


class SpaceTooLargeError(RuntimeError):
    """The requested enumeration exceeds the configured guard."""


class InfeasibleError(RuntimeError):
    """Exact computation is out of reach for these parameters."""


def write_text_atomic(path: str, text: str) -> None:
    """Replace the file at path with text, or leave it as it was.

    The text goes to a temporary file in the same directory, which is synced
    and then renamed over path; a write that fails partway removes the
    temporary file and never truncates the previous one.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
