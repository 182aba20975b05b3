"""One in-process ``hlas`` invocation with its output captured.

Imports only the standard library, so the set-up probe can load it before
it starts timing the import of ``hlaskit``.
"""

from __future__ import annotations

import contextlib
import io
import sys


def call(main, argv: list[str]) -> tuple[object, str]:
    """Run ``main(argv)`` as the ``hlas`` command and return its exit code
    and standard output.  An exception that escapes ``main`` is returned in
    place of the exit code, so the caller counts the job as failed."""
    out, err = io.StringIO(), io.StringIO()
    saved_argv = sys.argv
    sys.argv = ["hlas", *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # reported as a failed job
                code = f"{type(exc).__name__}: {exc}"
    finally:
        sys.argv = saved_argv
    return code, out.getvalue()
