"""Fixtures of the tests that call the compiled kernel directly."""
import shutil

import pytest

from serrelab import solvers


@pytest.fixture(scope="module")
def kernel_cache(tmp_path_factory):
    """A fresh $XDG_CACHE_HOME that holds the built kernel."""
    if shutil.which("c++") is None:
        pytest.skip("no c++ on PATH")
    return tmp_path_factory.mktemp("cache")


@pytest.fixture(scope="module")
def kernel(kernel_cache):
    """The kernel of _step.c and _format.cc, built into kernel_cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(kernel_cache))
        built = solvers._load_kernel()
    assert built is not None
    return built
