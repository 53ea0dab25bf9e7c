import pytest

import twophase.operators


@pytest.fixture
def splu_calls(monkeypatch):
    """The list that gets one entry per ``splu`` call of the test."""
    calls = []
    real = twophase.operators.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(twophase.operators, "splu", counting)
    return calls


@pytest.fixture
def operations(monkeypatch):
    """Counts of the test's generator products (``DiscreteGenerator.apply``)
    and implicit-step solves (``solve`` of a fetched factor)."""
    counts = {"products": 0, "solves": 0}
    gen_class = twophase.operators.DiscreteGenerator
    apply, factorization = gen_class.apply, gen_class.factorization

    def counting_apply(self, *args, **kwargs):
        counts["products"] += 1
        return apply(self, *args, **kwargs)

    def counting_factorization(self, *args, **kwargs):
        fact = factorization(self, *args, **kwargs)

        class Counting:
            def solve(self, rhs):
                counts["solves"] += 1
                return fact.solve(rhs)
        return Counting()

    monkeypatch.setattr(gen_class, "apply", counting_apply)
    monkeypatch.setattr(gen_class, "factorization", counting_factorization)
    return counts
