"""The set-up process: the run's throw-away set-ups happen here.

Throw-away deployments leave memory behind in the allocator, so they are
built in a process of their own and never count in the kept deployment's
resident set.  The run starts the process once with :class:`SetupProcess`,
which returns when the process has loaded the benchmark, so that loading
overlaps no measurement; it hands the process jobs with
:meth:`SetupProcess.call` and ends it with :meth:`SetupProcess.close`,
which waits until it has exited.  Jobs and answers travel as
length-prefixed pickles over the process's standard input and output; an
end of input tells it to stop.

It is a plain subprocess rather than a :mod:`multiprocessing` pool, whose
spawn start method leaves a resource-tracker process behind the run.
"""

from __future__ import annotations

import pickle
import struct
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, BinaryIO

HERE = Path(__file__).resolve().parent
HEADER = struct.Struct("<Q")
#: Seconds a closed set-up process may take to exit before it is killed.
EXIT_WAIT_S = 60


def send(stream: BinaryIO, message: Any) -> None:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(HEADER.pack(len(data)) + data)
    stream.flush()


def receive(stream: BinaryIO) -> Any:
    """The next message; ``EOFError`` when the stream ends before one."""
    header = stream.read(HEADER.size)
    if len(header) < HEADER.size:
        raise EOFError
    (size,) = HEADER.unpack(header)
    data = stream.read(size)
    if len(data) < size:
        raise EOFError
    return pickle.loads(data)


class SetupProcess:
    """The parent's handle on the set-up process."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "setups.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            self.answer()  # ready: the program is loaded
        except BaseException:
            self.close()
            raise

    def call(self, *args: Any) -> Any:
        """``bench.throwaway_setups(*args)``, run in the set-up process."""
        send(self.process.stdin, args)
        return self.answer()

    def answer(self) -> Any:
        try:
            ok, value = receive(self.process.stdout)
        except EOFError:
            raise RuntimeError(
                f"set-up process ended with code {self.process.wait()}"
            ) from None
        if not ok:
            raise RuntimeError(f"set-up process failed:\n{value}")
        return value

    def close(self) -> None:
        """End the process and wait for it; kill it if it does not exit."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "SetupProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def serve() -> None:
    """Answer jobs until the input ends."""
    for path in (str(HERE.parent / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bench

    requests, answers = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not enter the answer stream
    send(answers, (True, None))
    while True:
        try:
            args = receive(requests)
        except EOFError:
            return
        try:
            answer = (True, bench.throwaway_setups(*args))
        except Exception:  # noqa: BLE001 - reported to the parent, which fails
            answer = (False, traceback.format_exc())
        send(answers, answer)


if __name__ == "__main__":
    serve()
