"""Structured logging for the CLI and scale-run scripts.

One process-wide :class:`Logger` replaces bare ``print`` in command
handlers.  Three output modes:

- **text** (default): behaves exactly like ``print`` for
  :meth:`Logger.out` so existing CLI output (and the tests that parse
  it) is byte-identical; ``info``/``debug`` diagnostics go to stderr.
- **json**: every record becomes one JSON object per line on stdout
  (``{"level": ..., "msg": ..., ...fields}``), machine-consumable.
- **quiet**: only warnings and errors (and ``out`` payloads) survive.

Verbosity is orthogonal: ``debug`` records are dropped unless verbose.
"""

from __future__ import annotations

import json
import sys
from typing import Any, TextIO

_LEVELS = ("debug", "info", "warn", "error")


class Logger:
    """Leveled, optionally-JSON logger.

    ``out`` is the *payload* channel: in text mode it is a plain
    ``print`` to stdout (so reports/tables render untouched); in JSON
    mode payload text is wrapped as ``{"level": "out", "msg": ...}``.
    """

    def __init__(
        self,
        verbose: bool = False,
        quiet: bool = False,
        json_mode: bool = False,
        stream: TextIO | None = None,
        err_stream: TextIO | None = None,
    ):
        self.verbose = verbose
        self.quiet = quiet
        self.json_mode = json_mode
        self._stream = stream
        self._err_stream = err_stream

    @property
    def stream(self) -> TextIO:
        return self._stream if self._stream is not None else sys.stdout

    @property
    def err_stream(self) -> TextIO:
        if self.json_mode:
            # JSON mode keeps a single machine-readable channel.
            return self.stream
        return self._err_stream if self._err_stream is not None else sys.stderr

    # -- record emission -------------------------------------------------
    def _emit(self, level: str, msg: str, fields: dict[str, Any], stream: TextIO) -> None:
        if self.json_mode:
            record = {"level": level, "msg": msg}
            record.update(fields)
            print(json.dumps(record, default=str), file=self.stream)
            return
        if fields:
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            msg = f"{msg} [{detail}]"
        prefix = "" if level in ("out", "info") else f"{level}: "
        print(f"{prefix}{msg}", file=stream)

    def out(self, msg: str = "", **fields: Any) -> None:
        """Payload output (reports, tables): always shown."""
        self._emit("out", msg, fields, self.stream)

    def info(self, msg: str, **fields: Any) -> None:
        if self.quiet:
            return
        self._emit("info", msg, fields, self.err_stream)

    def debug(self, msg: str, **fields: Any) -> None:
        if not self.verbose or self.quiet:
            return
        self._emit("debug", msg, fields, self.err_stream)

    def warn(self, msg: str, **fields: Any) -> None:
        self._emit("warn", msg, fields, self.err_stream)

    def error(self, msg: str, **fields: Any) -> None:
        self._emit("error", msg, fields, self.err_stream)

    def state(self) -> dict[str, bool]:
        """Picklable configuration, for re-creating this logger in pool
        workers (streams are process-local and intentionally omitted)."""
        return {
            "verbose": self.verbose,
            "quiet": self.quiet,
            "json_mode": self.json_mode,
        }


_logger = Logger()


def get_logger() -> Logger:
    """The process-wide logger (configure once in ``main``)."""
    return _logger


def configure(
    verbose: bool = False,
    quiet: bool = False,
    json_mode: bool = False,
    stream: TextIO | None = None,
    err_stream: TextIO | None = None,
) -> Logger:
    """Reconfigure and return the process-wide logger."""
    global _logger
    _logger = Logger(
        verbose=verbose, quiet=quiet, json_mode=json_mode,
        stream=stream, err_stream=err_stream,
    )
    return _logger
