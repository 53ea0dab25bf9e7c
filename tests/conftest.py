import functools

import pytest

import twophase.operators
from twophase.model import Kernel


@pytest.fixture
def mixing_computations(monkeypatch):
    """The list that gets the kernel of each ``Kernel.mixes_at``
    computation of the test (the value is cached per kernel)."""
    calls = []
    real = Kernel.mixes_at.func

    def counting(kernel):
        calls.append(kernel)
        return real(kernel)

    prop = functools.cached_property(counting)
    prop.__set_name__(Kernel, "mixes_at")
    monkeypatch.setattr(Kernel, "mixes_at", prop)
    return calls


@pytest.fixture
def operations(monkeypatch):
    """Counts of the test's generator products (``DiscreteGenerator.apply``)
    and implicit-step solves (``solve`` of a factor fetched with
    ``above``, as the stepping loop does; a series factor's own solves
    on B's banded factor are parts of its steps)."""
    counts = {"products": 0, "solves": 0}
    gen_class = twophase.operators.DiscreteGenerator
    apply, factorization = gen_class.apply, gen_class.factorization

    def counting_apply(self, *args, **kwargs):
        counts["products"] += 1
        return apply(self, *args, **kwargs)

    def counting_factorization(self, *args, **kwargs):
        fact = factorization(self, *args, **kwargs)
        if not kwargs.get("above"):
            return fact

        class Counting:
            def solve(self, rhs):
                counts["solves"] += 1
                return fact.solve(rhs)
        return Counting()

    monkeypatch.setattr(gen_class, "apply", counting_apply)
    monkeypatch.setattr(gen_class, "factorization", counting_factorization)
    return counts
