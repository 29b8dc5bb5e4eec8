import pytest

from catalog import small_groups
from equirank.transform import MonoidClosure, _lex_sorted


def pytest_configure(config):
    # enumerate_end, enumerate_aut and closure build their MonoidClosure
    # without checking that its rows are in lexicographic order, because
    # they emit them so; every instance the suite builds is checked here
    build = MonoidClosure._of_sorted_rows.__func__

    def checked(cls, gset, images, generators=()):
        assert _lex_sorted(images), "builder rows out of lexicographic order"
        return build(cls, gset, images, generators)

    config.add_cleanup(lambda: setattr(MonoidClosure, "_of_sorted_rows", classmethod(build)))
    MonoidClosure._of_sorted_rows = classmethod(checked)


@pytest.fixture(scope="session")
def zoo():
    return small_groups()
