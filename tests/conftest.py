import builtins
import functools
import io
import os
from collections import Counter
from pathlib import Path

import pytest

from hlaskit.example import example_data_dir, load_example


@pytest.fixture(scope="session")
def example_dir():
    return example_data_dir()


@pytest.fixture(scope="session")
def example_inputs():
    """(prereg, measurements, pairs) of the bundled worked example."""
    return load_example()


@pytest.fixture(scope="session")
def example_pairs(example_inputs):
    return example_inputs[2]


@pytest.fixture(scope="session")
def example_scheme(example_inputs):
    return example_inputs[0].scheme


@pytest.fixture
def ankle_walk(example_pairs):
    return next(p for p in example_pairs
                if (p.task, p.joint) == ("Walk", "ankle"))


class FileReads(Counter):
    """Reads per resolved path; ``after[path]()`` runs after each read of
    ``path``."""

    def __init__(self):
        super().__init__()
        self.after = {}


@pytest.fixture
def file_reads(monkeypatch):
    """Count the reads of each file while the test runs: ``Path.read_bytes``,
    ``Path.read_text``, and ``Path.open``, ``open`` and ``io.open`` in a
    read-only mode.  A read made inside another (``read_text`` opens the
    file) counts once.  A test may set ``after[path]`` to act between one
    read of a file and the next."""
    reads, depth = FileReads(), [0]

    def counted(read, takes_mode):
        @functools.wraps(read)
        def wrapper(file, *args, **kwargs):
            depth[0] += 1
            try:
                result = read(file, *args, **kwargs)
            finally:
                depth[0] -= 1
            mode = args[0] if takes_mode and args else kwargs.get("mode", "r")
            if (depth[0] == 0 and isinstance(file, (str, os.PathLike))
                    and not set(mode) & set("wax+")):
                path = Path(file).resolve()
                reads[path] += 1
                reads.after.get(path, lambda: None)()
            return result
        return wrapper

    for owner, name, takes_mode in ((Path, "read_bytes", False),
                                    (Path, "read_text", False),
                                    (Path, "open", True),
                                    (builtins, "open", True),
                                    (io, "open", True)):
        monkeypatch.setattr(owner, name,
                            counted(getattr(owner, name), takes_mode))
    return reads
