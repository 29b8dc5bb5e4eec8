import numpy as np
import pytest

from catalog import small_groups
from equirank.groups import _RowKeys, _sorted_unique
from equirank.transform import MonoidClosure, _targets


def pytest_configure(config):
    # enumerate_end, enumerate_aut and closure hand MonoidClosure their End
    # indices unchecked, because they find them ascending and distinct;
    # every instance the suite builds is checked here
    init = MonoidClosure.__init__

    def checked(self, gset, indices, generators=()):
        keys = _RowKeys(_targets(gset)[0])
        assert indices.dtype == keys.pack(np.zeros((0, keys.length), dtype=np.intp)).dtype
        assert np.array_equal(_sorted_unique(indices), indices), "End indices not ascending"
        init(self, gset, indices, generators)

    config.add_cleanup(lambda: setattr(MonoidClosure, "__init__", init))
    MonoidClosure.__init__ = checked


@pytest.fixture(scope="session")
def zoo():
    return small_groups()
