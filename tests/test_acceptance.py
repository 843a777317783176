"""Acceptance gate: one test per verification criterion, run at full level.

Each test prints the criterion's one-line verdict, so `pytest -v -s` (or
any failure) shows the measured numbers next to the pass/fail status. The
tolerances these criteria enforce are frozen in splitlaw.acceptance; the
final test pins them so a drive-by edit cannot quietly loosen the gate.
Each verdict must also be byte for byte its line of the pinned
`splitlaw verify --level full` output, tests/data/verify_full.txt.
"""
from pathlib import Path

from splitlaw import acceptance

FULL_LINES = (Path(__file__).resolve().parent / "data" / "verify_full.txt"
              ).read_text(encoding="utf-8").splitlines()


def _check(criterion):
    res = criterion("full")
    print(res.line())
    assert res.passed, res.line()
    assert res.line() == FULL_LINES[res.number - 1]
    return res


def test_criterion_01_riemann_convergence():
    _check(acceptance.criterion_01)


def test_criterion_02_localized_comparison():
    _check(acceptance.criterion_02)


def test_criterion_03_one_sided_slope_bound():
    _check(acceptance.criterion_03)


def test_criterion_04_transport_invariants():
    _check(acceptance.criterion_04)


def test_criterion_05_renormalization_residual():
    _check(acceptance.criterion_05)


def test_criterion_06_split_matches_direct():
    _check(acceptance.criterion_06)


def test_criterion_07_entropy_admissibility():
    _check(acceptance.criterion_07)


def test_criterion_08_invariant_domains():
    _check(acceptance.criterion_08)


def test_criterion_09_semigroup_composition():
    _check(acceptance.criterion_09)


def test_criterion_10_modulus_transport_convergence():
    _check(acceptance.criterion_10)


def test_criterion_11_mixing_schedule():
    _check(acceptance.criterion_11)


def test_criterion_12_characteristics_cross_check():
    _check(acceptance.criterion_12)


def test_every_criterion_is_wired_into_the_gate():
    expected = [getattr(acceptance, f"criterion_{i:02d}")
                for i in range(1, 13)]
    assert list(acceptance.ALL_CRITERIA) == expected


def test_acceptance_tolerances_are_pinned():
    frozen = {
        "RIEMANN_L1_MAX": 0.02,
        "RIEMANN_RATE_MIN": 1.4,
        "EXACT_TOL": 1e-12,
        "COMPONENT_FLOOR": -1e-14,
        "OLEINIK_FACTOR": 2.0,
        "RENORM_C": 0.02,
        "RENORM_TREND_MIN": 1.6,
        "SPLIT_GAP_MAX": 0.05,
        "COMPAT_TOL": 1e-8,
        "PROJECTION_TOL": 1e-6,
        "ADMISS_TOL": 2e-3,
        "ADMISS_CONTROL_FACTOR": 10.0,
        "KK_EXCESS_TOL": 1e-12,
        "KK_GAP_MAX": 0.05,
        "KK_RATE_MIN": 1.3,
        "KK_CONSTDIR_TOL": 1e-10,
        "DEPAUW_WEAK_MAX": 0.1,
        "DEPAUW_BV_FACTOR": 0.1,
        "DEPAUW_DIV_TOL": 1e-12,
        "CROSS_C": 0.5,
    }
    for name, value in frozen.items():
        assert getattr(acceptance, name) == value, name


def _recorded_returns(monkeypatch, names):
    """Spy on the acceptance module's calls to names: every return value,
    in call order, per name."""
    seen = {name: [] for name in names}
    for name in names:
        def spy(*args, _fn=getattr(acceptance, name), _out=seen[name]):
            _out.append(_fn(*args))
            return _out[-1]
        monkeypatch.setattr(acceptance, name, spy)
    return seen


def test_gate_values_are_pinned_to_the_last_bit(monkeypatch):
    """The floats behind criteria 7 and 12, which the verdicts print to a
    few digits only: array-form rewrites of the entropy checks, the fixture
    solves and the characteristics route must keep every bit of them."""
    seen = _recorded_returns(monkeypatch, ("lp_distance",
                                           "admissibility_residual",
                                           "entropy_compat_defect"))
    assert acceptance.criterion_07("full").passed
    assert acceptance.criterion_12("full").passed
    assert [repr(g) for g in seen["lp_distance"]] == [
        "0.005002352725715191", "0.02348057393054543",
        "0.0027016512278205374", "0.008642497754592107",
        "0.0027650080926992972", "0.0021879558297441806"]
    # the five fixtures S, E, F, G, Q, then the entropy-violating control
    assert [repr(r) for r in seen["admissibility_residual"]] == [
        "0.0", "0.0010320031474549763", "0.0010498010249108437",
        "0.0008885549226846201", "0.001532497625694295",
        "0.08868621172354213"]
    assert len(seen["entropy_compat_defect"]) == 50
    assert repr(max(seen["entropy_compat_defect"])) == "1.473416055830512e-09"
