"""Tests for the precision policy: `working` is the only place that sets
precision, and the tolerance follows the requested precision."""
import ast
import pathlib

import mpmath as mp

import glcoeff
from glcoeff.coefficients import a_coefficient
from glcoeff.numeric import requested_prec, tolerance, working
from glcoeff.rootdata import group_profile


def test_working_requests_precision_and_sets_the_tolerance():
    assert requested_prec() == 256
    with working(96):
        assert (requested_prec(), mp.mp.prec) == (96, 160)
        assert tolerance() == mp.mpf(2) ** -48
        with working(1024):
            assert tolerance() == mp.mpf(2) ** -512
        assert (requested_prec(), mp.mp.prec) == (96, 160)
    assert requested_prec() == 256


def test_bare_call_runs_at_the_default_precision():
    with mp.workprec(53):
        bare = a_coefficient(group_profile(1, 3))
        assert mp.mp.prec == 53
    with working(256):
        ref = a_coefficient(group_profile(1, 3))
    assert bare.a_value == ref.a_value
    assert bare.a_tilde_value == ref.a_tilde_value
    assert bare.diagnostics == ref.diagnostics
    assert bare.diagnostics["requested_bits"] == 256
    assert bare.diagnostics["working_bits"] == 320


def test_no_module_sets_mpmath_precision():
    offenders = []
    for path in sorted(pathlib.Path(glcoeff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr in ("prec", "dps")
                        and ast.unparse(target.value) in ("mp", "mp.mp")):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
