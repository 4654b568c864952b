import pytest

from rmcover.classify import orbit_enumerate


@pytest.fixture(scope="session")
def sub112():
    return orbit_enumerate(1, 1, 2)


@pytest.fixture(scope="session")
def sub123():
    return orbit_enumerate(1, 2, 3)


@pytest.fixture(scope="session")
def sub124():
    return orbit_enumerate(1, 2, 4)


@pytest.fixture(scope="session")
def sub224():
    return orbit_enumerate(2, 2, 4)


@pytest.fixture(scope="session")
def oracle223():
    return orbit_enumerate(2, 2, 3)


@pytest.fixture(scope="session")
def oracle234():
    return orbit_enumerate(2, 3, 4)


@pytest.fixture(scope="session")
def oracle335():
    return orbit_enumerate(3, 3, 5)


@pytest.fixture
def fail_writes(monkeypatch):
    """Make every file the package opens for writing fail halfway through
    its first write, as a full disk would."""
    import builtins
    import errno

    import rmcover.common

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

        def __getattr__(self, name):
            return getattr(self.fh, name)

    def half_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(rmcover.common, "open", half_open, raising=False)
