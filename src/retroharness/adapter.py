"""Adapter for external forward/backward programs.

The external program is a long-lived child process speaking a
newline-delimited JSON protocol on stdin/stdout: each request is one line
``{"id": n, "data": <datum>}`` and the matching response is one line
``{"id": n, "data": <datum>}`` on success or ``{"id": n, "error": "..."}``
on failure.  Requests are strict JSON: a datum holding NaN or an infinity
is refused before it is sent.  At most one request is in flight per
process.  A response timeout, a response line longer than
``MAX_RESPONSE_BYTES`` or a dead child yields a program error for that
trial and the child is restarted before the next request.  An error the
child reports is a program error too, and the child keeps running.
"""

from __future__ import annotations

import contextlib
import json
import select
import subprocess
import threading
import time
from typing import Any, Sequence

from .core import ConfigError, TrialContext, _is_real

__all__ = ["ExternalProgramError", "ExternalProgram"]

DEFAULT_TIMEOUT = 10.0
# Longest response line buffered; a longer one is the program's error.
MAX_RESPONSE_BYTES = 16 * 2**20
# Longest prefix of a bad response line, or of a long reported error, quoted
# in its error.
ECHO_BYTES = 200


def _echo(text: bytes | str) -> str:
    """A bad response line or a long error for an error message: its length
    and at most ``ECHO_BYTES`` of its start, so an error stays small however
    long the text was."""
    more = "..." if len(text) > ECHO_BYTES else ""
    unit = "bytes" if isinstance(text, bytes) else "characters"
    return f"{len(text)} {unit}: {text[:ECHO_BYTES]!r}{more}"


class ExternalProgramError(RuntimeError):
    """Failure of an external program for one datum (timeout, crash,
    reported error, or protocol violation)."""


class ExternalProgram:
    """Wraps a child process as a program usable in a suite definition.

    Instances are callable with the ``(value, ctx)`` program signature, so
    one can serve directly as a suite's forward or backward program.  Use
    ``close()`` (or a ``with`` block) to terminate the child.
    """

    def __init__(
        self,
        command: Sequence[str],
        role: str = "forward",
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        if role not in ("forward", "backward"):
            raise ConfigError(f"role must be 'forward' or 'backward', got {role!r}")
        # select() cannot wait longer than TIMEOUT_MAX, nor on NaN.
        if not (_is_real(timeout) and 0 < timeout <= threading.TIMEOUT_MAX):
            raise ConfigError(
                f"timeout must be a number of seconds in (0, {threading.TIMEOUT_MAX}], "
                f"got {timeout!r}"
            )
        self.command = list(command)
        self.role = role
        self.timeout = timeout
        self._next_id = 1
        self._child: subprocess.Popen | None = None
        self._spawn()

    # -- process management -------------------------------------------------

    def _spawn(self) -> None:
        try:
            self._child = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=False,
            )
        except OSError as exc:
            raise ConfigError(f"cannot start external program {self.command!r}: {exc}") from exc
        self._buffer = bytearray()

    def close(self) -> None:
        """End the child, if any, and release both of its pipes."""
        if self._child is not None:
            self._child.kill()
            self._child.stdout.close()
            # Flushing a pending request into a dead child's pipe fails.
            with contextlib.suppress(OSError):
                self._child.stdin.close()
            self._child.wait()
            self._child = None

    def __enter__(self) -> "ExternalProgram":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- protocol -----------------------------------------------------------

    def _read_line(self, deadline_timeout: float) -> bytes:
        deadline = time.monotonic() + deadline_timeout
        stdout = self._child.stdout
        buffer = self._buffer
        start = 0
        while (end := buffer.find(b"\n", start)) < 0 and len(buffer) <= MAX_RESPONSE_BYTES:
            start = len(buffer)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ExternalProgramError(
                    f"external program timed out after {deadline_timeout}s"
                )
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            chunk = stdout.read1(65536)
            if not chunk:
                raise ExternalProgramError("external program closed its output")
            buffer += chunk
        if not 0 <= end <= MAX_RESPONSE_BYTES:
            raise ExternalProgramError(f"response line longer than {MAX_RESPONSE_BYTES} bytes")
        line = bytes(buffer[:end])
        del buffer[: end + 1]
        return line

    def __call__(self, value: Any, ctx: TrialContext | None = None) -> Any:
        request_id = self._next_id
        try:
            request = json.dumps({"id": request_id, "data": value}, allow_nan=False) + "\n"
        except ValueError as exc:
            # NaN and infinities have no JSON spelling; the child is untouched.
            raise ExternalProgramError(f"datum is not JSON: {exc}") from exc
        self._next_id += 1
        if self._child is None or self._child.poll() is not None:
            self.close()
            self._spawn()
        try:
            self._child.stdin.write(request.encode("utf-8"))
            self._child.stdin.flush()
            line = self._read_line(self.timeout)
            try:
                response = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ExternalProgramError(f"malformed response line of {_echo(line)}") from exc
            if not isinstance(response, dict) or response.get("id") != request_id:
                raise ExternalProgramError(
                    f"response does not match request id {request_id}, line of {_echo(line)}"
                )
        except OSError as exc:
            self.close()
            raise ExternalProgramError(f"external program pipe failed: {exc}") from exc
        except ExternalProgramError:
            # Drop the child; the next call starts a clean one.
            self.close()
            raise
        if "error" in response:
            error = str(response["error"])
            if len(error) > ECHO_BYTES:
                error = _echo(error)
            raise ExternalProgramError(f"external program error: {error}")
        if "data" not in response:
            raise ExternalProgramError(
                f"response carries neither data nor error, line of {_echo(line)}"
            )
        return response["data"]
