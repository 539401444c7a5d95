"""``invoke``: the ``floerbar`` command run in-process, as the tests call it."""

import contextlib
import io
from dataclasses import dataclass
from typing import Optional

from floerbar.cli import main


@dataclass
class Result:
    """One run of ``floerbar.cli.main``: its exit code, what it wrote to
    stdout and to stderr, both streams interleaved as ``output``, and the
    exception it ended in (``None`` after exit code 0)."""

    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: Optional[BaseException]


class _Tee(io.StringIO):
    """A captured stream that also copies every write to ``both``."""

    def __init__(self, both: io.StringIO) -> None:
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(args) -> Result:
    """Run ``main(args)`` with stdout and stderr captured.  ``SystemExit``
    gives the exit code (``None`` reads 0, a code that is not an int 1) and
    is kept as the exception unless the code is 0; any other exception is
    kept with exit code 1, so a test can tell a traceback from an exit."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            exception = exc if code else None
        except Exception as exc:  # noqa: BLE001 -- reported to the test, not raised
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)
