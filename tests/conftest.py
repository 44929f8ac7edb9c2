import pytest


@pytest.fixture(autouse=True, scope="session")
def _bytecode_outside_the_tree(tmp_path_factory):
    """A CLI process caches starpart's bytecode where ``spec.cached`` points,
    which ``PYTHONPYCACHEPREFIX`` moves: every process the tests start writes
    under a temporary directory, never into ``src/``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPYCACHEPREFIX", str(tmp_path_factory.mktemp("pycache")))
        yield
