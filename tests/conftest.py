import numpy as np
import pytest

from catalog import small_groups
from equirank.groups import _sorted_unique
from equirank.transform import MonoidClosure, _EndIndex


def pytest_configure(config):
    # enumerate_end, enumerate_aut and closure hand MonoidClosure their End
    # indices unchecked, because they find them ascending and distinct;
    # every instance the suite builds is checked here
    init = MonoidClosure.__init__

    def checked(self, gset, indices, generators=(), _codec=None):
        codec = _EndIndex(gset)
        assert _codec is None or _codec.counts == codec.counts
        keys = codec.keys
        assert indices.dtype == keys.pack(np.zeros((0, keys.length), dtype=np.intp)).dtype
        assert np.array_equal(_sorted_unique(indices), indices), "End indices not ascending"
        init(self, gset, indices, generators, _codec)

    config.add_cleanup(lambda: setattr(MonoidClosure, "__init__", init))
    MonoidClosure.__init__ = checked


@pytest.fixture(scope="session")
def zoo():
    return small_groups()
