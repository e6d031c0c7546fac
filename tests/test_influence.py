import itertools

import numpy as np
import pytest

from jcqsim import HBAR, NumericalError, OhmicBath, eta_coefficients
from jcqsim.influence import (COUPLING_WEIGHT, ENDPOINT, INTERIOR, pair_class,
                              pair_factor_table, self_factor_table)
from oracles import (eta_pair_time_domain, eta_pair_trapezoid_2d,
                     eta_self_time_domain, monolithic_influence)

DT = 12.707


@pytest.fixture(scope="module")
def table(paper_bath):
    return eta_coefficients(paper_bath, DT, 8, 8)


def test_zero_coupling_gives_zero_table():
    free = OhmicBath(alpha=0.0, omega_c=5.0, temperature=30.0)
    table = eta_coefficients(free, DT, 4, 4)
    assert table.eta_self_interior == 0.0
    assert table.eta_self_end == 0.0
    assert np.all(table.eta_pair_interior == 0.0)
    assert np.all(table.eta_pair_end_interior == 0.0)
    assert np.all(table.eta_pair_end_end == 0.0)


def test_validation(paper_bath):
    with pytest.raises(ValueError):
        eta_coefficients(paper_bath, -1.0, 4, 2)
    with pytest.raises(ValueError):
        eta_coefficients(paper_bath, DT, 4, 5)
    with pytest.raises(ValueError):
        eta_coefficients(paper_bath, DT, 4, 0)


def test_residual_gate(paper_bath, monkeypatch):
    import jcqsim.influence as influence

    eta_coefficients(paper_bath, DT, 16, 16)  # within budget at the paper point
    monkeypatch.setattr(influence, "_ETA_RTOL", 0.0)
    with pytest.raises(NumericalError) as info:
        eta_coefficients(paper_bath, DT, 4, 4)
    assert info.value.residual > 0.0


def test_entries_independent_of_dk_max(paper_bath):
    # the pair grid is set by dk_max; entries it shares must not move
    wide = eta_coefficients(paper_bath, DT, 16, 16)
    narrow = eta_coefficients(paper_bath, DT, 16, 4)
    pairs = ("eta_pair_interior", "eta_pair_end_interior", "eta_pair_end_end")
    scale = np.abs(np.hstack([wide.eta_self_interior, wide.eta_self_end,
                              *(getattr(wide, name) for name in pairs)])).max()
    for name in pairs:
        assert np.abs(getattr(wide, name)[:4] - getattr(narrow, name)).max() <= 1e-15 * scale
    assert wide.eta_self_interior == narrow.eta_self_interior
    assert wide.eta_self_end == narrow.eta_self_end


def test_self_terms_damp(table):
    assert table.eta_self_interior.real > 0.0
    assert table.eta_self_end.real > 0.0


def test_interior_entries_depend_on_separation_only(paper_bath, table):
    other = eta_coefficients(paper_bath, DT, 100, 8)
    np.testing.assert_allclose(other.eta_pair_interior, table.eta_pair_interior, rtol=1e-13)
    assert other.eta_self_interior == pytest.approx(table.eta_self_interior, rel=1e-13)


def test_debug_csv_dump(table, tmp_path):
    from jcqsim import dump_eta_csv

    path = tmp_path / "eta.csv"
    dump_eta_csv(table, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "dk,class,re_eta,im_eta"
    assert len(lines) == 1 + 2 + 3 * table.dk_max
    dk, kind, re, im = lines[1].split(",")
    assert (dk, kind) == ("0", "interior")
    assert float(re) == pytest.approx(table.eta_self_interior.real, rel=1e-12)


class TestTimeDomainOracles:

    def test_self_interior(self, paper_bath, table):
        ref = eta_self_time_domain(paper_bath, DT)
        assert abs(table.eta_self_interior - ref) / abs(ref) < 1e-6

    def test_self_end(self, paper_bath, table):
        ref = eta_self_time_domain(paper_bath, 0.5 * DT)
        assert abs(table.eta_self_end - ref) / abs(ref) < 1e-6

    def test_pair_trapezoid_2d(self, paper_bath, table):
        # direct 2-D trapezoid over the two cells at separation 1: a 2000x2000
        # grid carries a few 1e-5 of its own corner error (gamma is sharp on
        # the 1/w_c scale), which shrinks as h^2 toward the implementation
        value = table.eta_pair(1, "ii")
        ref_coarse = eta_pair_trapezoid_2d(paper_bath, DT, 1, n_grid=2000)
        err_coarse = abs(value - ref_coarse) / abs(ref_coarse)
        assert err_coarse < 1e-4
        ref_fine = eta_pair_trapezoid_2d(paper_bath, DT, 1, n_grid=16000)
        err_fine = abs(value - ref_fine) / abs(ref_fine)
        assert err_fine < 1e-6
        assert err_fine < err_coarse / 30.0

    @pytest.mark.parametrize("dk", [1, 2, 5])
    @pytest.mark.parametrize("kind", ["ii", "ei", "ee"])
    def test_pair_classes(self, paper_bath, table, dk, kind):
        ref = eta_pair_time_domain(paper_bath, DT, dk, kind)
        assert abs(table.eta_pair(dk, kind) - ref) / abs(ref) < 1e-6


def pair_index(s_plus, s_minus):
    """Spin-pair index p = 2 b+ + b- of the factor tables, with s = 1 - 2b."""
    return (1 - s_plus) + (1 - s_minus) // 2


def factored_influence(path_plus, path_minus, table):
    """Product of the factor-table entries along one path pair."""
    n = len(path_plus) - 1
    p = [pair_index(sp, sm) for sp, sm in zip(path_plus, path_minus)]
    value = 1.0 + 0.0j
    for k in range(n + 1):
        kind = ENDPOINT if k in (0, n) else INTERIOR
        value *= self_factor_table(table.eta_self(kind))[p[k]]
    for dk in range(1, min(n, table.dk_max) + 1):
        for e in range(0, n - dk + 1):
            eta = table.eta_pair(dk, pair_class(e, e + dk, n))
            value *= pair_factor_table(eta)[p[e], p[e + dk]]
    return value


class TestFactors:
    """Entries of the factor tables, indexed p = 2 b+ + b-: (+1, +1) is 0, (+1, -1) is 1."""

    def test_diagonal_pair_is_unity(self, table):
        factors = self_factor_table(table.eta_self_interior)
        assert factors[pair_index(1, 1)] == 1.0
        assert factors[pair_index(-1, -1)] == 1.0

    def test_zero_eta_is_unity(self):
        assert self_factor_table(0.0)[pair_index(1, -1)] == 1.0
        assert pair_factor_table(0.0)[pair_index(1, -1), pair_index(-1, 1)] == 1.0

    def test_offdiagonal_self_factor_algebra(self, table):
        # (s+, s-) = (+1, -1): exponent collapses to the real damping
        # 4 g^2 Re(eta) / hbar with the coupling weight g = 1/2
        eta = table.eta_self_interior
        direct = np.exp(-COUPLING_WEIGHT**2 / HBAR * 2.0 * (eta + np.conj(eta)))
        value = self_factor_table(eta)[pair_index(1, -1)]
        assert value == pytest.approx(direct, rel=1e-15)
        assert value == pytest.approx(np.exp(-4.0 * COUPLING_WEIGHT**2 * eta.real / HBAR),
                                      rel=1e-15)
        assert abs(value) < 1.0

    def test_pair_factor_unity_for_diagonal_late_pair(self, table):
        factors = pair_factor_table(table.eta_pair(1, "ii"))
        for early in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            assert factors[pair_index(*early), pair_index(1, 1)] == 1.0
            assert factors[pair_index(*early), pair_index(-1, -1)] == 1.0


class TestAssembleInfluence:
    """The influence functional of one path pair, from the production eta table.

    ``monolithic_influence`` evaluates the literal double sum in one
    exponential; ``factored_influence`` multiplies the factor tables that
    the ITM and the path sum use.
    """

    def test_identical_paths_give_unity(self, table):
        path = [1, -1, 1, 1, -1]
        assert monolithic_influence(path, path, table) == pytest.approx(1.0, abs=1e-15)

    def test_zero_coupling_gives_unity(self):
        free = OhmicBath(alpha=0.0, omega_c=5.0, temperature=30.0)
        table = eta_coefficients(free, DT, 4, 4)
        value = monolithic_influence([1, -1, 1], [-1, -1, 1], table)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_matches_monolithic_double_sum_n2(self, table):
        plus = [1, -1, 1]
        minus = [-1, 1, 1]
        ref = monolithic_influence(plus, minus, table)
        assert factored_influence(plus, minus, table) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_factorization_equals_double_sum_exhaustively(self, table, n):
        worst = 0.0
        for plus in itertools.product((1, -1), repeat=n + 1):
            for minus in itertools.product((1, -1), repeat=n + 1):
                a = factored_influence(plus, minus, table)
                b = monolithic_influence(plus, minus, table)
                worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
        assert worst < 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_modulus_bounded_by_unity(self, table, n):
        for plus in itertools.product((1, -1), repeat=n + 1):
            for minus in itertools.product((1, -1), repeat=n + 1):
                assert abs(monolithic_influence(plus, minus, table)) <= 1.0 + 1e-12

    def test_log_factor_linear_in_alpha(self, paper_bath):
        doubled = OhmicBath(alpha=1e-5, omega_c=5.0, temperature=30.0)
        t1 = eta_coefficients(paper_bath, DT, 4, 4)
        t2 = eta_coefficients(doubled, DT, 4, 4)
        plus, minus = [1, -1, 1, -1, 1], [-1, 1, 1, 1, -1]
        log1 = np.log(monolithic_influence(plus, minus, t1))
        log2 = np.log(monolithic_influence(plus, minus, t2))
        assert log2 / log1 == pytest.approx(2.0, rel=1e-10)
