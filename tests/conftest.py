import pytest

from canadaday import minor_sums


@pytest.fixture
def empty_store():
    """The store of `minor_sums.kept` emptied, as at process start, and
    emptied again after the test.  A test that patches a function whose
    results the store keeps (a sign, a flip, an enumeration, a T-minor
    table) needs both: before, so that the patched function runs; after, so
    that nothing built under the patch outlives the test."""
    minor_sums._forget()
    yield
    minor_sums._forget()
