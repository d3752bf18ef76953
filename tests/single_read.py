"""Check that a loader reads its input once.

``load_piped`` feeds the input through a pipe, as a shell's ``<(...)`` does,
and runs the loader in a thread joined with a timeout, so a loader that opens
its input a second time (and waits forever on a named FIFO for a writer)
fails the test instead of stalling the suite. ``pipe_of`` gives the pipe a
shell's ``<(cat FILE)`` gives. ``counted_reads`` records the read_rows calls
and the opens.
"""

import os
import threading
from contextlib import contextmanager, suppress

import pytest

import imglex.fileio

# "anonymous": an os.pipe() read as /dev/fd/N, what bash's <(...) gives;
# "fifo": a named FIFO made with os.mkfifo.
PIPE_KINDS = ["anonymous", "fifo"]
TIMEOUT_S = 10


def started(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def write_to(open_file, data):
    """A started thread that writes ``data`` to the file ``open_file()`` opens."""

    def write():
        with suppress(BrokenPipeError), open_file() as fh:  # BrokenPipeError: the reader stopped at an error
            fh.write(data)

    return started(write)


def pipe_of(data):
    """``(read_fd, writer)``: an os.pipe() whose write end the thread ``writer`` fills with ``data`` and closes."""
    read_fd, write_fd = os.pipe()
    return read_fd, write_to(lambda: os.fdopen(write_fd, "wb"), data)


def load_piped(kind, directory, content, load):
    """``(path, outcome)``: ``path`` is the pipe that a writer thread fills
    with ``content`` (UTF-8) and ``outcome`` is what ``load(path)`` returned
    or the exception it raised. A named FIFO is made in ``directory``."""
    if kind == "anonymous":
        read_fd, writer = pipe_of(content.encode("utf-8"))
        path = f"/dev/fd/{read_fd}"
    else:
        read_fd, path = None, directory / "pipe"
        os.mkfifo(path)
        writer = write_to(lambda: open(path, "wb"), content.encode("utf-8"))  # the open waits for the loader's
    outcome = {}

    def run():
        try:
            outcome["value"] = load(path)
        except Exception as exc:
            outcome["value"] = exc

    loader = started(run)
    loader.join(TIMEOUT_S)
    hung = loader.is_alive()
    if hung and kind == "fifo":
        # Give the loader's second open a writer that closes at once, so its thread ends.
        with suppress(OSError):
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
    writer.join(TIMEOUT_S)
    if read_fd is not None:
        os.close(read_fd)
    if hung:
        pytest.fail(f"loading from a {kind} pipe did not return in {TIMEOUT_S} s")
    return path, outcome["value"]


@contextmanager
def counted_reads(module):
    """``(reads, opens)``: the path of each read_rows call that ``module``
    makes and of each file imglex.fileio opens while the block runs."""
    reads, opens = [], []

    def read_rows(*args, **kwargs):
        reads.append(args[0])
        return imglex.fileio.read_rows(*args, **kwargs)

    def counted_open(file, *args, **kwargs):
        opens.append(file)
        return open(file, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "read_rows", read_rows)
        patch.setattr(imglex.fileio, "open", counted_open, raising=False)
        yield reads, opens
