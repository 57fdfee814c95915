import random

import pytest

from linext.families import builtin_corpus, random_poset
from linext.poset import Poset


@pytest.fixture(scope="session")
def corpus():
    return builtin_corpus()


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)


def random_posets(count: int, nmax: int = 8, seed: int = 7):
    """Deterministic stream of small random posets shared by oracle tests."""
    r = random.Random(seed)
    out = []
    for _ in range(count):
        n = r.randint(2, nmax)
        prob = r.choice([0.0, 0.1, 0.25, 0.4, 0.6, 0.8])
        out.append(random_poset(n, prob, seed=r.randrange(10**9)))
    return out


def shuffled_chain(n: int, seed: int) -> Poset:
    """Chain on the labels e0 ... e{n-1}, covering along their shuffled order."""
    labels = [f"e{i}" for i in range(n)]
    order = labels[:]
    random.Random(seed).shuffle(order)
    return Poset.from_covers(labels, list(zip(order, order[1:])))


def count_constructions(monkeypatch, *classes) -> list[str]:
    """Names of the given classes, appended each time one is constructed."""
    built: list[str] = []
    for cls in classes:
        init = cls.__init__

        def counting_init(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return built
