import pytest

from canadaday import minor_sums


@pytest.fixture
def empty_store():
    """The store of `minor_sums.kept` emptied, and emptied again after the
    test.  That is not all of process start: the `lru_cache`s of minor plans
    and interlacing pairs are not in the store and stay filled.  A test that
    patches a function whose results the store keeps (a sign, a flip, an
    enumeration, a T-minor table) needs both: before, so that the patched
    function runs; after, so that nothing built under the patch outlives
    the test."""
    minor_sums._forget()
    yield
    minor_sums._forget()
