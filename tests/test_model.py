import numpy as np
import pytest

from twophase.errors import ConfigurationError, ValidationError
from twophase.model import (build_grid, build_kernel, sample_coefficient,
                            sample_params)


def const_params(grid, **over):
    spec = dict(gamma1=1.0, gamma2=1.0, mu=1.0, c1=1.0, c2=1.0, gamma0=1.0)
    spec.update(over)
    return sample_params(spec, grid)


class TestBuildGrid:
    def test_uniform_partition(self):
        g = build_grid("finite", 1.0, 4)
        assert np.allclose(g.edges, [0, 0.25, 0.5, 0.75, 1.0])
        assert g.h == 0.25

    def test_midpoints(self):
        g = build_grid("finite", 2.0, 2)
        assert np.allclose(g.centers, [0.5, 1.5])

    def test_truncated_kind_recorded(self):
        g = build_grid("truncated_infinite", 100.0, 1000)
        assert g.h == pytest.approx(0.1)
        assert g.kind == "truncated_infinite"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            build_grid("finite", -1.0, 4)
        with pytest.raises(ConfigurationError):
            build_grid("finite", 1.0, 1)
        with pytest.raises(ConfigurationError):
            build_grid("bogus", 1.0, 4)


class TestSampleParams:
    def test_constant_sampling(self):
        g = build_grid("finite", 1.0, 8)
        p = const_params(g)
        for arr in (p.gamma1, p.gamma2, p.mu, p.c1, p.c2):
            assert np.all(arr == 1.0)

    def test_indicator_sampling(self):
        g = build_grid("finite", 1.0, 10)
        p = const_params(g, c1={"form": "expression", "name": "indicator",
                                "lo": 0.5, "hi": 1.0})
        assert np.array_equal(p.c1 == 1.0, g.centers >= 0.5)

    def test_exp_decay_on_truncation(self):
        g = build_grid("truncated_infinite", 10.0, 100)
        p = const_params(g, mu={"form": "expression", "name": "exp_decay",
                                "rate": 1.0})
        assert np.allclose(p.mu, np.exp(-g.centers))
        assert np.all(p.mu > 0)

    def test_negative_rate_names_cell(self):
        g = build_grid("finite", 1.0, 10)
        with pytest.raises(ValidationError) as ei:
            const_params(g, mu=lambda s: s - 0.5)
        assert ei.value.field == "mu"
        assert ei.value.cell is not None

    def test_gamma_below_bound_rejected(self):
        g = build_grid("finite", 1.0, 10)
        with pytest.raises(ValidationError):
            const_params(g, gamma1=0.5, gamma0=1.0)

    def test_gamma_below_bound_at_edge_only_rejected(self):
        # on n = 2 both cell centers (0.25, 0.75) read 1; the edge at 0.5
        # reads 0.5, which the transport flux uses
        g = build_grid("finite", 1.0, 2)
        gamma1 = {"form": "table", "points": [[0.0, 1.0], [0.5, 0.5],
                                              [0.51, 1.0]]}
        with pytest.raises(ValidationError) as ei:
            const_params(g, gamma1=gamma1)
        assert str(ei.value) == "gamma1 drops below gamma0=1 at edge 1 (s=0.5)"
        assert ei.value.field == "gamma1" and ei.value.cell == 1

    def test_table_step_interpolation(self):
        g = build_grid("finite", 1.0, 4)
        p = const_params(g, mu={"form": "table",
                                "points": [[0.0, 1.0], [0.5, 3.0]]})
        assert np.allclose(p.mu, [1.0, 1.0, 3.0, 3.0])

    def test_determinism(self):
        g1 = build_grid("finite", 1.0, 64)
        g2 = build_grid("finite", 1.0, 64)
        p1 = const_params(g1, mu=lambda s: np.exp(-s))
        p2 = const_params(g2, mu=lambda s: np.exp(-s))
        assert np.array_equal(p1.mu, p2.mu)


class TestBuildKernel:
    def test_constant_kernel(self):
        g = build_grid("finite", 1.0, 4)
        K = build_kernel(1.0, g)
        assert np.all(K.beta1 == 1.0)

    def test_lower_triangular_indicator(self):
        g = build_grid("finite", 1.0, 8)
        K = build_kernel({"form": "indicator", "relation": "s>y"}, g)
        assert np.all(np.triu(K.beta) == 0)
        assert np.all(K.beta1 == 0)

    def test_zero_kernel(self):
        g = build_grid("finite", 1.0, 8)
        K = build_kernel(0.0, g)
        assert np.all(K.beta1 == 0)

    def test_negative_kernel_rejected(self):
        g = build_grid("finite", 1.0, 4)
        with pytest.raises(ValidationError):
            build_kernel(lambda s, y: s - y, g)

    def test_dominator_validated(self):
        g = build_grid("finite", 1.0, 8)
        K = build_kernel({"form": "constant", "value": 1.0,
                          "dominator": 2.0}, g)
        assert K.dominator is not None
        with pytest.raises(ValidationError):
            build_kernel({"form": "constant", "value": 1.0,
                          "dominator": 0.5}, g)

    def test_sample_coefficient_rejects_unknown_form(self):
        g = build_grid("finite", 1.0, 4)
        with pytest.raises(ConfigurationError):
            sample_coefficient({"form": "mystery"}, g)


class TestTableEntries:
    @pytest.mark.parametrize("points, field", [
        ([[0.0, True], [0.5, False]], "c1.points[0][1]"),
        ([[True, 1.0]], "c1.points[0][0]"),
        ([[0.0, 1.0], [0.5, "x"]], "c1.points[1][1]")])
    def test_coefficient_table_entry_not_a_number(self, points, field):
        # a boolean read as 1 or 0 (or its knot as s = 1); now the entry
        # is named
        g = build_grid("finite", 1.0, 4)
        with pytest.raises(ValidationError) as ei:
            const_params(g, c1={"form": "table", "points": points})
        assert ei.value.field == field
        assert str(ei.value).startswith(f"{field} must be a number")

    @pytest.mark.parametrize("values, field", [
        ([[1.0, True], [0.0, 1.0]], "values[0][1]"),
        (np.array([[True, False], [True, True]]), "values[0][0]"),
        ([[1.0, 0.0], [None, 1.0]], "values[1][0]")])
    def test_kernel_table_entry_not_a_number(self, values, field):
        g = build_grid("finite", 1.0, 2)
        with pytest.raises(ValidationError) as ei:
            build_kernel({"form": "table", "values": values}, g)
        assert ei.value.field == field

    def test_numeric_tables_unchanged(self):
        g = build_grid("finite", 1.0, 2)
        K = build_kernel({"form": "table", "values": np.eye(2)}, g)
        assert np.array_equal(K.beta, np.eye(2))
        assert np.array_equal(
            build_kernel({"form": "table", "values": [[1, 0], [0, 1]]},
                         g).beta, np.eye(2))

    @pytest.mark.parametrize("spec", ["abc", True, None])
    def test_coefficient_not_a_spec_names_it(self, spec):
        g = build_grid("finite", 1.0, 4)
        with pytest.raises(ConfigurationError,
                           match=r"cannot interpret coefficient spec .* "
                                 r"\(coefficient c1\)$"):
            const_params(g, c1=spec)
