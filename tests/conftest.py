import pytest
from hypothesis import settings

from maassjacobi.precision import PrecisionContext

# Property tests over the exact core: derandomized, so that every run draws
# the same examples, and bounded, so that tier-1 stays quick.
settings.register_profile("exact", derandomize=True, database=None,
                          max_examples=25, deadline=None)
# Property tests of numeric kernels against slower mpmath oracles: also
# derandomized, and fewer examples, because each oracle call costs
# milliseconds.
settings.register_profile("numeric", derandomize=True, database=None,
                          max_examples=20, deadline=None)


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(bits=128)
