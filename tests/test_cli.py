"""Tests for the command line interface.

Shape resolution, the JSON envelope, determinism, exit codes, and every
verification suite at small rank.
"""
import argparse
import hashlib
import json

import mpmath as mp
import pytest

from glcoeff import coefficients
from glcoeff.cli import _resolve_shape, main
from glcoeff.gmfamily import RouteValue
from glcoeff.numeric import working


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_envelope_and_gl2_example(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--d", "1", "--r", "2",
                           "--S", "", "--prec", "128")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "query", "results", "diagnostics"}
    assert doc["config"] == {
        "precision_bits": 128,
        "seed": 0,
        "field": "Q",
        "tolerance_exponent": 64,
    }
    assert doc["query"] == {"command": "coeff", "d": 1, "r": 2, "S": ""}
    assert len(doc["results"]) == 2
    full = doc["results"][-1]
    assert full["levi"] == [2]
    assert full["a_tilde"].startswith("-0.6907756487602923947")
    assert doc["results"][0]["a"] == "1.0"


def test_single_row_for_gl1(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--d", "1", "--r", "1",
                           "--prec", "96")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 1
    row = doc["results"][0]
    assert row["weyl_weight"] == "1"
    with working(96):
        assert abs(mp.mpf(row["a_tilde"]) - 1) < mp.mpf(2) ** -80


def test_rows_follow_the_enumeration(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--d", "2", "--r", "2",
                           "--S", "2,3", "--prec", "128")
    assert code == 0
    doc = json.loads(out)
    assert [row["levi"] for row in doc["results"]] == [[2, 2], [4]]
    assert [row["class_size"] for row in doc["results"]] == [3, 1]


def test_shape_resolution():
    def ns(**kw):
        base = {"d": None, "r": None, "n": None}
        base.update(kw)
        return argparse.Namespace(**base)

    assert _resolve_shape(ns(d=2, r=3)) == (2, 3)
    assert _resolve_shape(ns(n=6, d=2)) == (2, 3)
    assert _resolve_shape(ns(n=6, r=3)) == (2, 3)
    assert _resolve_shape(ns(n=5)) == (1, 5)
    with pytest.raises(ValueError):
        _resolve_shape(ns(n=5, d=2))
    with pytest.raises(ValueError):
        _resolve_shape(ns(n=5, r=2))
    with pytest.raises(ValueError):
        _resolve_shape(ns(d=2, r=3, n=5))
    with pytest.raises(ValueError):
        _resolve_shape(ns())
    for bad in (ns(d=0, r=3), ns(d=-1, r=2), ns(d=2, r=0), ns(n=0),
                ns(n=6, d=0), ns(n=6, r=-3)):
        with pytest.raises(ValueError):
            _resolve_shape(bad)


def test_zeta_xi_at_two(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--eval", "xi", "--at", "2",
                           "--prec", "192")
    assert code == 0
    doc = json.loads(out)
    with working(192):
        value = mp.mpf(doc["results"][0]["coefficient"])
        assert abs(value - mp.pi / 6) < mp.mpf("1e-50")


def test_zeta_pole_reported_as_laurent(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--eval", "xi", "--at", "1",
                           "--prec", "128")
    assert code == 0
    doc = json.loads(out)
    assert doc["diagnostics"]["low_order"] == -1
    assert doc["results"][0]["order"] == -1


def test_zeta_tower_value_at_center(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--eval", "ztilde", "--at", "1",
                           "--d", "1", "--prec", "128")
    assert code == 0
    doc = json.loads(out)
    with working(128):
        assert abs(mp.mpf(doc["results"][0]["coefficient"]) - 1) \
            < mp.mpf("1e-35")


def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "coeff", "--d", "1", "--r", "2")
    _, second, _ = run_cli(capsys, "coeff", "--d", "1", "--r", "2")
    assert first == second


# sha256 of the stdout of seven fast benchmark commands, and of the two
# verify suites that run the unit value and the germ enumerations: a
# refactor that must keep every printed digit fails here if it moves one
PINNED_STDOUT = [
    (("coeff", "--d", "1", "--r", "5", "--S", "", "--prec", "256",
      "--seed", "0"),
     "a3be1e8c1ff08b5c4680ad2e9dc6ae18c64c8f3f92daeb2a2ebe38daefa78758"),
    (("coeff", "--d", "2", "--r", "3", "--S", "2", "--prec", "256",
      "--seed", "0"),
     "2ed2ad7628daead51a8073510a4e18640779ff38c59592d8d58390191e823910"),
    (("coeff", "--d", "1", "--r", "2", "--S", "inf", "--prec", "512",
      "--seed", "1"),
     "3a4d91006a9d46f4d7189d393988ab3270a4e7cf618a5227df6b0a3629de97e0"),
    (("expansion", "--d", "2", "--r", "2", "--S", "2", "--prec", "256",
      "--jobs", "1", "--seed", "0"),
     "4a9593f90be91f5bae27389c6f7c6fe1d44dd2ae965999d071ef96c943271201"),
    (("zeta", "--eval", "ztilde-s", "--at", "5/2", "--d", "2", "--S",
      "3,inf", "--order", "6", "--prec", "512", "--seed", "0"),
     "3841cf1e1cd01e834926182c7b872749eb656ee744248f45238f496e3761f9f2"),
    (("zeta", "--eval", "ztilde-s", "--at", "1", "--d", "1", "--S", "2,inf",
      "--prec", "1024", "--seed", "0"),
     "77e15edc361940e89336f05df9f67cd75a13f60a9b096f68c1d8766a54ce66f3"),
    (("verify", "prolongement4", "--n", "3", "--prec", "256", "--seed", "0"),
     "f56c073c6917bc76f570451bfcc1d20242544bedfa53996206fd9178f96a4774"),
    (("verify", "unit-expansion", "--n", "3", "--prec", "256", "--seed", "0"),
     "ded18a836d373831621c271797724867c97b1cea82f96ed97a0e157a0be3b02f"),
    (("verify", "cp-identity", "--n", "3", "--prec", "256", "--seed", "0"),
     "90dffc612834eb108cbfe091cb4a423022f557953932d1db7c5ea4c48207b55e"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=[" ".join(a[:5]) for a, _ in PINNED_STDOUT])
def test_benchmark_stdout_is_pinned(capsys, argv, digest):
    """Each pinned command prints byte for byte what it printed when the
    digests were recorded."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_doubling_precision_moves_values_little(capsys):
    _, low, _ = run_cli(capsys, "coeff", "--d", "1", "--r", "2",
                        "--prec", "128")
    _, high, _ = run_cli(capsys, "coeff", "--d", "1", "--r", "2",
                         "--prec", "256")
    row_low = json.loads(low)["results"][-1]
    row_high = json.loads(high)["results"][-1]
    with working(320):
        a, b = mp.mpf(row_low["a"]), mp.mpf(row_high["a"])
        assert abs(a - b) / abs(b) < mp.mpf(2) ** -120


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--d", "1", "--r", "2",
                           "--prec", "128", "--format", "table")
    assert code == 0
    assert "{" not in out
    assert "a_tilde" in out
    assert "max_route_disagreement" in out


def test_orbit_enumeration(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--d", "2", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["diagnostics"]["classes"] == 2
    assert doc["diagnostics"]["target_orbit"] == [2, 2]
    assert doc["results"][0]["weyl_weight"] == "1/6"


def test_volume_table(capsys):
    code, out, _ = run_cli(capsys, "volumes", "--d", "1", "--r", "2",
                           "--prec", "128")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 2
    assert set(doc["results"][0]) == {"parts", "gl_ambient", "block_levi",
                                      "minimal_levi", "group_block"}


SUITE_RANKS = [("covolumes", "4"), ("cp-identity", "3"),
               ("prolongement4", "3"), ("induction-oracle", "3"),
               ("routes", "2"), ("unit-expansion", "3")]


@pytest.mark.parametrize("suite,n,prec", [
    pytest.param(suite, n, prec,
                 id=f"{suite}-{n}" if prec == "128" else f"{suite}-{n}-{prec}")
    for prec in ("128", "16", "1024") for suite, n in SUITE_RANKS
])
def test_verification_suites_pass_at_small_rank(capsys, suite, n, prec):
    """The suite bounds follow --prec, so every suite passes at any
    precision."""
    code, out, _ = run_cli(capsys, "verify", suite, "--n", n,
                           "--prec", prec)
    assert code == 0
    doc = json.loads(out)
    assert doc["diagnostics"]["passed"] is True


def test_unknown_suite_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_contradictory_shape_exits_nonzero(capsys):
    code, _, err = run_cli(capsys, "coeff", "--n", "5", "--d", "2")
    assert code == 2
    assert "multiple" in err


@pytest.mark.parametrize("argv", [
    ("coeff", "--d", "-1", "--r", "2"),
    ("expansion", "--d", "-1", "--r", "2"),
    ("orbits", "--d", "0", "--r", "3"),
    ("volumes", "--d", "1", "--r", "0"),
    ("coeff", "--n", "6", "--d", "0"),
    ("zeta", "--eval", "ztilde", "--at", "1", "--d", "-2"),
    ("zeta", "--eval", "ztilde-s", "--at", "1", "--d", "0"),
    ("zeta", "--eval", "xi", "--at", "2", "--order", "0"),
    ("zeta", "--eval", "xi", "--at", "2", "--order", "-2"),
    ("verify", "routes", "--n", "0"),
    ("verify", "cp-identity", "--n", "-3"),
    ("zeta", "--eval", "ztilde-s", "--at", "1", "--S", "inf,inf"),
])
def test_nonpositive_shape_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    message = "duplicate place" if "--S" in argv else "at least 1"
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command", [
    ("coeff", "--d", "1", "--r", "2"),
    ("expansion", "--d", "1", "--r", "2"),
    ("verify", "routes", "--n", "2"),
])
def test_order_is_a_zeta_flag_only(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--order", "4"])
    assert exc.value.code == 2
    assert "--order" in capsys.readouterr().err


@pytest.mark.parametrize("prec", ["0", "-70", "15"])
def test_precision_below_floor_exits_2(capsys, prec):
    code, out, err = run_cli(capsys, "coeff", "--d", "1", "--r", "2",
                             "--prec", prec)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "at least 16 bits" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_nonpositive_jobs_exits_2(capsys, jobs):
    code, out, err = run_cli(capsys, "expansion", "--d", "1", "--r", "2",
                             "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--jobs must be at least 1" in err


def test_runtime_failure_exits_2(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise RuntimeError("could not draw a generic direction (seed exhausted)")

    monkeypatch.setattr("glcoeff.coefficients.draw_generic_direction",
                        exhausted)
    code, out, err = run_cli(capsys, "coeff", "--d", "1", "--r", "2",
                             "--prec", "64")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "seed exhausted" in err


@pytest.mark.parametrize("command", ["coeff", "expansion"])
def test_route_disagreement_exits_2(capsys, monkeypatch, command):
    """A route disagreement takes main's one error path: an error line on
    stderr, nothing on stdout, exit 2."""
    lower = coefficients.c

    def perturbed(*args):
        rv = lower(*args)
        return RouteValue(rv.value + mp.mpf("1e-6"), rv.residual, rv.route)

    monkeypatch.setattr(coefficients, "c", perturbed)
    code, out, err = run_cli(capsys, command, "--d", "1", "--r", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: route disagreement")


def test_verify_routes_runs_each_group_once_per_row(capsys, monkeypatch):
    """Each (d, r, S) row of verify routes comes from one expansion, so
    the routes run on GL(d*m), m = 2..r, once each: 7 groups times 3
    place sets for d*r <= 4."""
    levels = []
    symmetrized = coefficients.symmetrized_value

    def counting(tower, direction):
        levels.append(direction.parts)
        return symmetrized(tower, direction)

    monkeypatch.setattr(coefficients, "symmetrized_value", counting)
    code, _, _ = run_cli(capsys, "verify", "routes", "--n", "4",
                         "--prec", "128")
    assert code == 0
    assert len(levels) == 21
    assert all(len(parts) == 1 for parts in levels)


def test_parallel_expansion_matches_serial(capsys):
    _, serial, _ = run_cli(capsys, "expansion", "--d", "2", "--r", "2",
                           "--S", "2", "--prec", "128", "--jobs", "1")
    _, parallel, _ = run_cli(capsys, "expansion", "--d", "2", "--r", "2",
                             "--S", "2", "--prec", "128", "--jobs", "2")
    assert json.loads(serial)["results"] == json.loads(parallel)["results"]


def test_field_file_failure_exits_cleanly(capsys, gaussian_field_file):
    code, _, err = run_cli(capsys, "coeff", "--d", "1", "--r", "2",
                           "--field", gaussian_field_file, "--prec", "64")
    assert code == 2
    assert err.startswith("error:")


def test_field_file_zeta_works_where_it_converges(capsys, gaussian_field_file):
    code, out, _ = run_cli(capsys, "zeta", "--eval", "xi", "--at", "10",
                           "--field", gaussian_field_file, "--prec", "32",
                           "--order", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["field"] == gaussian_field_file
    assert doc["results"]
    assert doc["diagnostics"]["coefficients"] == len(doc["results"])


def test_field_file_budget_failure_exits_cleanly(capsys, gaussian_field_file):
    code, _, err = run_cli(capsys, "zeta", "--eval", "xi", "--at", "6",
                           "--field", gaussian_field_file, "--prec", "64")
    assert code == 2
    assert "error:" in err and "64 requested (128 working)" in err


@pytest.mark.parametrize("key,value", [
    ("degree", 2.9), ("discriminant", -4.9), ("signature", [0, 1.7]),
    ("a_5", 2.5), ("a_1", "1"), ("a_1", True), ("discriminant", 0)])
def test_non_integral_field_file_exits_2(capsys, tmp_path, gaussian_field_file,
                                         key, value):
    """Field data holds JSON integers only and a nonzero discriminant; the
    Gaussian file with one entry changed is refused, not truncated."""
    raw = json.loads(open(gaussian_field_file).read())
    if key.startswith("a_"):
        raw["dirichlet_coefficients"][int(key[2:]) - 1] = value
    else:
        raw[key] = value
    path = tmp_path / "field.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "zeta", "--eval", "xi", "--at", "10",
                             "--prec", "32", "--order", "2",
                             "--field", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
