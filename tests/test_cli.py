"""End-to-end command-line checks: exit-code contract, JSON shape, and
determinism of the output bytes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from quiver_fmo import cli, gklo, multipoly
from quiver_fmo.cli import EXIT_CLOSED_STDOUT, main
from quiver_fmo.multipoly import RatFunc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_affine_level_one(capsys):
    code, out, _ = run(capsys, "classify", "--quiver", "affine_sl2",
                       "--w", "1,0", "--v", "1,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["conical"] is True and data["good"] is False
    assert data["level"] == 1 and data["marks"] == [1, 1]
    assert data["theorem_prediction"] == "conical-not-good"
    assert data["direct"] == "conical-not-good"


def test_classify_good_finite(capsys):
    code, out, _ = run(capsys, "classify", "--quiver", "a1", "--w", "2", "--v", "1", "--json")
    assert code == 0
    assert json.loads(out)["good"] is True


def test_classify_empty_v(capsys):
    code, out, _ = run(capsys, "classify", "--quiver", "a2", "--w", "1,1", "--v", "0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["conical"] is True and data["good"] is True
    assert data["witness"] is None and data["theorem_prediction"] is None


def test_fmo_m_zero_returns_dressing(capsys):
    code, out, _ = run(capsys, "fmo", "--quiver", "a1", "--w", "2", "--v", "2",
                       "--m", "0", "--f", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == {"num": "1", "den": "1"}


def test_fmo_output_shape(capsys):
    code, out, _ = run(capsys, "fmo", "--quiver", "a1", "--w", "2", "--v", "2",
                       "--m", "1", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["result"] == {"num": "u[1,1] - u[1,2]", "den": "w[1,1] - w[1,2]"}


def test_fmo_rejects_asymmetric_dressing(capsys):
    code, _, err = run(capsys, "fmo", "--quiver", "a1", "--w", "2", "--v", "2",
                       "--m", "0", "--f", "w[1,1]")
    assert code == 2
    assert "swapping slots" in err


@pytest.mark.parametrize("argv, message", [
    (("--quiver", "a2", "--w", "2,2", "--v", "1,2", "--m", "0,0", "--f", "w[2,1]"),
     "input error: dressing is not partially symmetric: "
     "not invariant under swapping slots w[2,1] and w[2,2]\n"),
    (("--quiver", "a1", "--w", "2", "--v", "2", "--m", "1", "--f", "w[1,3]"),
     "input error: variable w[1,3] outside the (v) slot range\n"),
])
def test_dressing_errors_name_variables_as_printed(capsys, argv, message):
    # the vertex is 1-based, as the input spells it
    code, out, err = run(capsys, "fmo", *argv)
    assert (code, out, err) == (2, "", message)


def test_hilbert_closed_form(capsys):
    code, out, _ = run(capsys, "hilbert", "--quiver", "a1", "--w", "2", "--v", "1",
                       "--order", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == [1, 0, 3, 0, 5, 0, 7, 0, 9]
    assert data["classification"] == "good"


def test_hilbert_scans_the_box_once(capsys):
    from quiver_fmo.quiver import box_scan

    code, _, _ = run(capsys, "hilbert", "--quiver", "a2", "--w", "2,2", "--v", "1,1",
                     "--order", "4", "--json")
    assert code == 0
    info = box_scan.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_hilbert_refuses_bad(capsys):
    code, out, _ = run(capsys, "hilbert", "--quiver", "a1", "--w", "2", "--v", "2",
                       "--order", "6", "--json")
    assert code == 2
    assert json.loads(out)["classification"] == "bad"


def test_verify_restriction_pass(capsys):
    code, out, _ = run(capsys, "verify", "restriction", "--quiver", "a1",
                       "--w", "2", "--v", "2", "--vprime", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_hold"] is True and data["checked"] > 0


def test_verify_involution_single_case(capsys):
    code, out, _ = run(capsys, "verify", "involution", "--quiver", "affine_sl2",
                       "--w", "1,0", "--v", "1,1", "--m", "1,1", "--json")
    assert code == 0
    assert json.loads(out)["all_hold"] is True


def test_verify_km_reports_stages(capsys):
    code, out, _ = run(capsys, "verify", "km-embedding", "--quiver", "a1",
                       "--w", "2", "--v", "2", "--vprime", "1", "--m", "1", "--json")
    assert code == 0
    data = json.loads(out)
    case = data["cases"][0]
    assert [s["stage"] for s in case["stages"]] == \
        ["split", "fourier1", "fourier2", "forget"]


def test_verify_km_skips_nonconical(capsys):
    code, out, _ = run(capsys, "verify", "km-embedding", "--quiver", "affine_sl2",
                       "--w", "0,0", "--v", "1,1", "--vprime", "0,0",
                       "--m", "1,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["checked"] == 0 and data["skipped"] == len(data["cases"]) > 0


def test_verify_failure_exit_code_and_both_sides(capsys, monkeypatch):
    # force a failure to check the reporting contract
    import quiver_fmo.cli as cli
    from quiver_fmo.defect_embed import VerifyReport
    from quiver_fmo.multipoly import RatFunc, MPoly

    def fake(ctx, v_prime, m, f, sign):
        return VerifyReport(False, RatFunc.one(), RatFunc.zero())

    monkeypatch.setattr(cli, "verify_restriction", fake)
    code, out, _ = run(capsys, "verify", "restriction", "--quiver", "a1",
                       "--w", "2", "--v", "1", "--vprime", "1",
                       "--m", "1", "--f", "1", "--json")
    assert code == 1
    case = json.loads(out)["cases"][0]
    assert case["lhs"] == {"num": "1", "den": "1"}
    assert case["rhs"] == {"num": "0", "den": "1"}


def test_bad_input_exit_code(capsys):
    code, _, err = run(capsys, "classify", "--quiver", "a1", "--w", "2,1", "--v", "1")
    assert code == 2 and "needs 1 entries" in err
    code, _, err = run(capsys, "classify", "--quiver", "/nonexistent.json",
                       "--w", "1", "--v", "1")
    assert code == 2
    code, _, err = run(capsys, "fmo", "--quiver", "a1", "--w", "2", "--v", "1",
                       "--m", "3")
    assert code == 2


def test_quiver_file_input(capsys, tmp_path):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({
        "vertices": ["0", "1"],
        "edges": [{"source": "0", "target": "1"}],
    }))
    code, out, _ = run(capsys, "classify", "--quiver", str(path),
                       "--w", "1,1", "--v", "1,1", "--json")
    assert code == 0
    assert json.loads(out)["kind"] == "finite"


@pytest.mark.parametrize("data", [
    {"vertices": ["a", "b"], "edges": [["a", "b"]]},
    {"vertices": 5, "edges": []},
    [1, 2],
    {"vertices": ["a", "b"], "edges": [{"source": "a"}]},
    pytest.param("[" * 100000 + "]" * 100000, id="nested past the decoder limit"),
])
def test_malformed_quiver_file_exits_2(capsys, tmp_path, data):
    path = tmp_path / "quiver.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out, err = run(capsys, "classify", "--quiver", str(path),
                         "--w", "1,1", "--v", "1,1", "--json")
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_output_deterministic(capsys):
    args = ("verify", "adding-defect", "--quiver", "affine_sl2", "--w", "0,0",
            "--v", "1,1", "--vprime", "1,0", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# Human-readable output (no --json), byte for byte: an fmo report, a verify
# report with nested lists, an ugly theory's hilbert report and a classify
# report with the level prediction.
HUMAN_GOLDENS = {
    "fmo --quiver a1 --w 2 --v 2 --m 1 --sign -": (
        "dressing: 1\n"
        "m:\n"
        "  1\n"
        "result:\n"
        "  den: w[1,1] - w[1,2]\n"
        "  num: -w[1,1]^2*u[1,1]^-1 + w[1,2]^2*u[1,2]^-1\n"
        "ring: slice_loc\n"
        "sign: -\n"
    ),
    "verify km-embedding --quiver a1 --w 4 --v 2 --vprime 1 --m 1 --f 1 --sign +": (
        "all_hold: True\n"
        "cases:\n"
        "  f: 1\n"
        "  holds: True\n"
        "  lhs:\n"
        "    den: 1\n"
        "    num: u[1,1]\n"
        "  m:\n"
        "    1\n"
        "  rhs:\n"
        "    den: 1\n"
        "    num: u[1,1]\n"
        "  sign: +\n"
        "  stages:\n"
        "    dressing: (1)/(w[1,1])\n"
        "    factor: 1\n"
        "    gamma:\n"
        "      1\n"
        "      --\n"
        "    stage: split\n"
        "    --\n"
        "    dressing: (1)/(w[1,1])\n"
        "    factor: +1\n"
        "    gamma:\n"
        "      1\n"
        "      --\n"
        "    stage: fourier1\n"
        "    --\n"
        "    dressing: (-1)/(w[1,1])\n"
        "    factor: -1\n"
        "    gamma:\n"
        "      1\n"
        "      --\n"
        "    stage: fourier2\n"
        "    --\n"
        "    dressing: 1\n"
        "    factor: -w[1,1]\n"
        "    gamma:\n"
        "      1\n"
        "      --\n"
        "    stage: forget\n"
        "    --\n"
        "  --\n"
        "checked: 1\n"
        "skipped: 0\n"
        "subject: km-embedding\n"
    ),
    "hilbert --quiver affine_sl2 --w 1,0 --v 1,1 --order 4": (
        "classification: ugly\n"
        "coeffs:\n"
        "  1\n"
        "  2\n"
        "  6\n"
        "  10\n"
        "  19\n"
        "min_degree: 1\n"
        "order: 4\n"
        "poisson_cone_point: False\n"
        "witness:\n"
        "  1\n"
        "  1\n"
    ),
    "classify --quiver affine_sl2 --w 1,0 --v 1,1": (
        "conical: True\n"
        "direct: conical-not-good\n"
        "good: False\n"
        "kind: affine\n"
        "level: 1\n"
        "marks:\n"
        "  1\n"
        "  1\n"
        "min_value: 1\n"
        "mu_dominant: True\n"
        "mu_pairing:\n"
        "  1\n"
        "  0\n"
        "theorem_prediction: conical-not-good\n"
        "witness:\n"
        "  1\n"
        "  1\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(HUMAN_GOLDENS))
def test_human_output_bytes(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (0, HUMAN_GOLDENS[argv], "")


def test_classify_disagreeing_prediction_exits_3(capsys, monkeypatch):
    from quiver_fmo import quiver

    monkeypatch.setattr(quiver, "theorem_prediction", lambda C, d: "not-conical")
    code, out, err = run(capsys, "classify", "--quiver", "a1", "--w", "2", "--v", "1",
                         "--json")
    data = json.loads(out)
    assert (code, err) == (3, "")
    assert (data["theorem_prediction"], data["direct"]) == ("not-conical", "good")
    assert data["internal_error"] == "level prediction disagrees with the direct check"


def _raise(*args, **kwargs):
    raise RuntimeError("substitution route taken")


def test_verify_involution_takes_the_termwise_route(capsys, monkeypatch):
    import sys
    from quiver_fmo import gklo

    real = gklo.chevalley
    for name, module in list(sys.modules.items()):
        if name.startswith("quiver_fmo") and getattr(module, "chevalley", None) is real:
            monkeypatch.setattr(module, "chevalley", _raise)
    code, out, _ = run(capsys, "verify", "involution", "--quiver", "affine_sl2",
                       "--w", "1,0", "--v", "1,1", "--json")
    assert code == 0
    assert json.loads(out)["checked"] > 0


def test_verify_orientation_takes_the_termwise_route(capsys, monkeypatch):
    from quiver_fmo.multipoly import RatFunc

    monkeypatch.setattr(RatFunc, "subs_u", _raise)
    code, out, _ = run(capsys, "verify", "orientation", "--quiver", "a2",
                       "--w", "1,1", "--v", "2,2", "--json")
    assert code == 0
    assert json.loads(out)["checked"] > 0


# 1 build per charge and 1 per (edge, charge): a2 has 1 edge and 9
# charges, affine_sl2 2 and 6
@pytest.mark.parametrize("quiver,w,v,builds", [("a2", "1,1", "2,2", 18),
                                               ("affine_sl2", "2,2", "2,1", 18)])
def test_verify_orientation_builds_subset_terms_twice_per_edge_and_charge(
        capsys, monkeypatch, quiver, w, v, builds):
    # the original M^+_m(1) once per charge and the flipped one once per
    # (edge, charge); every dressing reuses that verdict
    from quiver_fmo import gklo

    calls = []
    real = gklo.fmo_plus_terms

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gklo, "fmo_plus_terms", counted)
    code, out, err = run(capsys, "verify", "orientation", "--quiver", quiver,
                         "--w", w, "--v", v, "--json")
    assert (code, err) == (0, "")
    assert len(calls) == builds
    assert json.loads(out)["checked"] > builds


def test_failing_negative_restriction_takes_the_termwise_route(capsys, monkeypatch):
    import sys
    from quiver_fmo import defect_embed, gklo
    from quiver_fmo.multipoly import RatFunc

    real = gklo.chevalley
    for name, module in list(sys.modules.items()):
        if name.startswith("quiver_fmo") and getattr(module, "chevalley", None) is real:
            monkeypatch.setattr(module, "chevalley", _raise)
    monkeypatch.setattr(RatFunc, "subs_u", _raise)
    monkeypatch.setattr(defect_embed, "identity_holds", lambda lhs, rhs=(): False)
    code, out, err = run(capsys, "verify", "restriction", "--quiver", "a2",
                         "--w", "2,2", "--v", "2,2", "--vprime", "1,1",
                         "--sign", "-", "--json")
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["checked"] > 0 and not data["all_hold"]


def test_every_verify_subject_runs_without_gcd_or_substitution(capsys, monkeypatch):
    # the gcd kernel and the whole-element substitution are test oracles only
    from quiver_fmo import gklo, multipoly
    from quiver_fmo.cli import VERIFY_SUBJECTS

    monkeypatch.setattr(multipoly, "poly_gcd", _raise)
    monkeypatch.setattr(multipoly.RatFunc, "subs_u", _raise)
    monkeypatch.setattr(gklo, "chevalley_u_image", _raise)
    for subject, (_, reads) in sorted(VERIFY_SUBJECTS.items()):
        vprime = ["--vprime", "1,1"] if "vprime" in reads else []
        code, out, err = run(capsys, "verify", subject, "--quiver", "a2", "--w", "2,2",
                             "--v", "2,2", *vprime, "--json")
        assert (code, err) == (0, ""), subject
        assert json.loads(out)["checked"] > 0, subject


@pytest.mark.parametrize("dressing", ["(w[1,1]+w[1,2]+z)^300", "2^20000"])
def test_oversized_dressing_is_an_input_error(capsys, dressing):
    code, out, err = run(capsys, "fmo", "--quiver", "a1", "--w", "2", "--v", "2",
                         "--m", "0", "--f", dressing)
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_internal_error_exit_code(capsys, monkeypatch):
    import quiver_fmo.cli as cli
    from quiver_fmo.gklo import InternalError

    def broken(*args, **kwargs):
        raise InternalError("forced")

    monkeypatch.setattr(cli, "orientation_flip_sign", broken)
    code, _, err = run(capsys, "verify", "orientation", "--quiver", "a2",
                       "--w", "1,1", "--v", "1,1", "--json")
    assert code == 3 and "internal error: forced" in err


@pytest.mark.parametrize("argv", [
    "verify involution --quiver a2 --w 2,2 --v 2,2 --m 3,0",
    "verify orientation --quiver a2 --w 2,2 --v 2,2 --m 3,0",
    "verify restriction --quiver a2 --w 2,2 --v 2,2 --vprime 1,1 --m 0,3",
    "verify adding-defect --quiver a2 --w 2,2 --v 2,2 --vprime 3,0",
    "verify km-embedding --quiver a2 --w 2,2 --v 2,2 --vprime 3,0",
    "verify restriction --quiver a2 --w 2,2 --v 2,2 --vprime 3,0",
    "verify adding-defect --quiver a2 --w 2,2 --v 2,2",
    "hilbert --quiver a1 --w 2 --v 1 --order -1",
    "verify involution --quiver a1 --w 2 --v 1 --max-degree -1",
    "verify orientation --quiver a1 --w 2 --v 2 --m 5",
    # options that the subject never reads
    "verify adding-defect --quiver a1 --w 2 --v 1 --vprime 1 --sign +",
    "verify involution --quiver a1 --w 2 --v 1 --sign -",
    "verify involution --quiver a1 --w 2 --v 1 --vprime 1",
    "verify orientation --quiver a2 --w 1,1 --v 1,1 --sign +",
    "verify orientation --quiver a2 --w 1,1 --v 1,1 --vprime 1,1",
    "verify d-identity --quiver a1 --w 2 --v 1 --vprime 1",
    "verify d-identity --quiver a1 --w 2 --v 1 --m 5",
    "verify d-identity --quiver a1 --w 2 --v 1 --f w[9,9]",
    "verify d-identity --quiver a1 --w 2 --v 1 --sign -",
    "verify d-identity --quiver a1 --w 2 --v 1 --max-degree 7",
    # an exponent past the range of a packed monomial field
    "fmo --quiver a1 --w 2 --v 2 --m 1 --f w[1,1]^100000000000000000000000 --json",
    # dressings nested past the limit of the parser's AST construction and
    # of the parser's own stack
    pytest.param("fmo --quiver a1 --w 2 --v 2 --m 0 --f " + "+".join(["w[1,1]"] * 5000),
                 id="fmo --f sum of 5000 terms"),
    pytest.param("fmo --quiver a1 --w 2 --v 2 --m 0 --f=" + "-" * 3000 + "1",
                 id="fmo --f 3000 unary minuses"),
    pytest.param("fmo --quiver a1 --w 2 --v 2 --m 0 --f=" + "-" * 100000 + "1",
                 id="fmo --f 100000 unary minuses"),
])
def test_invalid_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_max_degree_defaults_to_2_and_only_sweeps_read_it(capsys):
    base = "verify involution --quiver a1 --w 2 --v 2 --json".split()
    assert run(capsys, *base) == run(capsys, *base, "--max-degree", "2")
    assert run(capsys, *base) != run(capsys, *base, "--max-degree", "1")
    code, out, err = run(capsys, "verify", "d-identity", "--quiver", "a1", "--w", "2",
                         "--v", "1", "--max-degree", "0")
    assert (code, out) == (2, "")
    assert err == "input error: verify d-identity does not read --max-degree\n"


def test_flat_dressing_sum_is_parsed_without_recursion(capsys):
    code, out, err = run(capsys, "fmo", "--quiver", "a1", "--w", "2", "--v", "2", "--m", "0",
                         "--f", "+".join(["w[1,1]*w[1,2]"] * 1500))
    assert (code, err) == (0, "")
    assert "dressing: 1500*w[1,1]*w[1,2]\n" in out


@pytest.mark.parametrize("argv", [
    "classify --quiver a2 --w 1,1 --v 4000,4000",
    "verify involution --quiver a2 --w 2,2 --v 3,3 --max-degree 100000",
    # 1,252 cuts to order 1000: the path sum alone would take minutes
    "hilbert --quiver a2 --w 30,30 --v 30,30 --order 1000",
    # the series accumulation is quadratic in the order; v = 0 allocated it
    "hilbert --quiver a1 --w 4 --v 1 --order 100000",
    "hilbert --quiver a1 --w 4 --v 0 --order 1000000",
    # 252 subsets, but each numerator would expand over all 45 forms x_a - x_b
    "fmo --quiver a1 --w 2 --v 10 --m 5 --json",
    # the f = 1 core is within budget, but not 84 times over: 70 subsets of
    # 84 terms, each over the 12 forms its denominator lacks
    "fmo --quiver a1 --w 2 --v 8 --m 4 --f (w[1,1]+w[1,2]+w[1,3]+w[1,4])^6 --json",
])
def test_enumeration_over_budget_is_refused(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_small_budget_refuses_a_sweep_before_the_core_expands(capsys, monkeypatch):
    # a1 v=6 m=1: the f = 1 core of M^- would expand 6 subset numerators
    # over the 10 forms each denominator lacks, 6 * 2^10 terms by the bound;
    # the pre-count sends the value to the keyed sum, which refuses it
    expanded = []
    real = gklo._fmo_core

    def spied(*args):
        expanded.append(args[1:])
        return real(*args)

    monkeypatch.setattr(gklo, "_fmo_core", spied)
    monkeypatch.setattr(multipoly, "EXPANSION_BUDGET", 6 * 2 ** 10 - 1)
    code, out, err = run(capsys, "verify", "involution", "--quiver", "a1",
                         "--w", "2", "--v", "6", "--json")
    assert (code, out) == (2, "")
    assert expanded and ((1,), "-") not in expanded
    assert err == "refused: a sum over a common denominator could expand to 6144 terms, " \
                  "more than 6143\n"


CHEAP_VERIFY_SUBJECTS = ("restriction", "adding-defect", "km-embedding", "involution",
                         "orientation")


def _table_ops():
    """classify, fmo, hilbert and verify d-identity ops and the ops of the
    other verify subjects recorded at <= 0.1 s from the benchmark table, with
    the stdout sha256 and exit code recorded there."""
    path = Path(__file__).resolve().parent.parent / "bench" / "table.json"
    ops = json.loads(path.read_text())["ops"]
    for key, row in sorted(ops.items()):
        argv = key.split()
        if argv[0] in ("classify", "fmo", "hilbert") or argv[:2] == ["verify", "d-identity"] or (
                argv[0] == "verify" and argv[1] in CHEAP_VERIFY_SUBJECTS
                and row["cost_s"] <= 0.1):
            yield argv, row["sha256"], row["exit"]


def test_table_ops_byte_identical(capsys):
    ops = list(_table_ops())
    assert {argv[1] for argv, _, _ in ops if argv[0] == "verify"} == \
        {"d-identity", *CHEAP_VERIFY_SUBJECTS}
    assert sum(argv[0] == "hilbert" for argv, _, _ in ops) == 196
    for argv, sha, exit_code in ops:
        code, out, err = run(capsys, *argv)
        assert (hashlib.sha256(out.encode()).hexdigest(), code, err) == (sha, exit_code, ""), argv


def _costliest_ops(workload, count):
    """The count table ops of a benchmark workload with the largest recorded
    cost, with their stdout sha256 and exit code."""
    table = json.loads((Path(__file__).resolve().parent.parent / "bench"
                        / "table.json").read_text())
    ops = {op for cell in table["workloads"][workload]["cells"] for op in cell}
    for op in sorted(ops, key=lambda op: (-table["ops"][op]["cost_s"], op))[:count]:
        yield op.split(), table["ops"][op]["sha256"], table["ops"][op]["exit"]


def test_costliest_table_ops_byte_identical(capsys):
    # the a2 (3,3) ops that _table_ops leaves out: their large u-Laurent
    # values exercise the print order most; the hilbert ops of orders 14-44,
    # the longest paths over cuts
    ops = [*_costliest_ops("termwise", 10), *_costliest_ops("substitution", 5),
           *_costliest_ops("hilbert", 15)]
    assert len(ops) == 30
    for argv, sha, exit_code in ops:
        code, out, err = run(capsys, *argv)
        assert (hashlib.sha256(out.encode()).hexdigest(), code, err) == (sha, exit_code, ""), argv


# stdout sha256 of the affine D4 run below, recorded when the Hilbert series
# still evaluated every shell point up to the norm bound
AFFINE_D4_ORDER_10_SHA256 = "feb77b235713f872cb6e92a5dfc8f02e206ccfa74ce875113249c35083c2753d"
# stdout sha256 of the runs below, recorded with the vertex-pruned enumeration
# that preceded the path sum over cuts
AFFINE_D4_ORDER_11_SHA256 = "69ba53da8f577a44ba4dbf0810f930239abcc7d0079d17a630e7974d41a97943"
A2_22_ORDER_40_SHA256 = "27e84c53799412ce1afd30c384f753d8595b54fecae6c2cdf092cabc8bc5a159"


def _affine_d4_hilbert(capsys, tmp_path, order):
    path = tmp_path / "affine_d4.json"
    path.write_text(json.dumps({
        "vertices": ["0", "1", "2", "3", "4"],
        "edges": [{"source": "0", "target": str(k)} for k in range(1, 5)],
    }))
    code, out, err = run(capsys, "hilbert", "--quiver", str(path), "--w", "2,0,0,0,0",
                         "--v", "2,1,1,1,1", "--order", str(order), "--json")
    assert (code, err) == (0, "")
    return out


def _a2_hilbert(capsys, order):
    code, out, err = run(capsys, "hilbert", "--quiver", "a2", "--w", "2,2", "--v", "2,2",
                         "--order", str(order), "--json")
    assert (code, err) == (0, "")
    return out


def _sha256(out):
    return hashlib.sha256(out.encode()).hexdigest()


def test_affine_d4_hilbert_golden(capsys, tmp_path):
    assert _sha256(_affine_d4_hilbert(capsys, tmp_path, 10)) == AFFINE_D4_ORDER_10_SHA256


def test_affine_d4_hilbert_order_11_golden(capsys, tmp_path):
    assert _sha256(_affine_d4_hilbert(capsys, tmp_path, 11)) == AFFINE_D4_ORDER_11_SHA256


def test_a2_hilbert_order_40_golden(capsys):
    assert _sha256(_a2_hilbert(capsys, 40)) == A2_22_ORDER_40_SHA256


# both orders were refused by the shell-point pre-count that preceded the
# cut budget
@pytest.mark.parametrize("quiver,golden,order", [("a2", 40, 60), ("affine_d4", 11, 20)])
def test_higher_order_hilbert_extends_the_pinned_golden(capsys, tmp_path, quiver, golden,
                                                        order):
    def at(n):
        return _a2_hilbert(capsys, n) if quiver == "a2" else _affine_d4_hilbert(
            capsys, tmp_path, n)

    short = at(golden)
    assert _sha256(short) == {"a2": A2_22_ORDER_40_SHA256,
                              "affine_d4": AFFINE_D4_ORDER_11_SHA256}[quiver]
    longer = json.loads(at(order))
    assert longer["order"] == order and len(longer["coeffs"]) == order + 1
    assert longer["coeffs"][:golden + 1] == json.loads(short)["coeffs"]


REGISTRATION_SCRIPT = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from quiver_fmo import cli, multipoly
if sys.argv[1] == "reversed":
    names = [make(i, r) for make in (multipoly.wv, multipoly.uv) for i in range(2)
             for r in range(1, 5)]
    for var in reversed(names + [multipoly.ZVAR]):
        multipoly._position(var)
out = {"texts": [multipoly.poly_text(multipoly.parse_poly(text)) for text in sys.argv[2:]]}
for argv in json.loads(sys.stdin.read()):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    out[" ".join(argv)] = [hashlib.sha256(buf.getvalue().encode()).hexdigest(), code]
print(json.dumps(out))
"""


def test_variable_registration_order_changes_no_output():
    # the packed field of a variable is its registration position; the text
    # and the CLI bytes sort by (kind, vertex, slot) and must not see it
    texts = ["u[2,1]^-2*w[1,3] + z*w[2,2]^3 - 3*u[1,4]*u[1,1]^-1 + 1/2",
             "(w[1,1] - w[2,1])^3*u[1,2] + z^2*u[2,1]^-1"]
    ops = [*_costliest_ops("termwise", 2), *_costliest_ops("substitution", 1)]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = {}
    for order in ("registered", "reversed"):
        proc = subprocess.run([sys.executable, "-c", REGISTRATION_SCRIPT, order, *texts],
                              input=json.dumps([argv for argv, _, _ in ops]),
                              capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        runs[order] = json.loads(proc.stdout)
    assert runs["registered"] == runs["reversed"]
    assert runs["reversed"]["texts"] == [
        "w[2,2]^3*z + 1/2 - 3*u[1,1]^-1*u[1,4] + w[1,3]*u[2,1]^-2",
        "w[1,1]^3*u[1,2] - 3*w[1,1]^2*w[2,1]*u[1,2] + 3*w[1,1]*w[2,1]^2*u[1,2]"
        " - w[2,1]^3*u[1,2] + u[2,1]^-1*z^2"]
    for argv, sha, exit_code in ops:
        assert runs["reversed"][" ".join(argv)] == [sha, exit_code]


# the whole-element field layer, the gcd kernel and the substitution oracles
# (ROADMAP item 4's move list): no CLI route may reach them
MOVED_METHODS = ("make", "subs_u", "permute_vars", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__truediv__", "__pow__")
MOVED_FUNCTIONS = ("factor_denominator", "poly_gcd")


def _refuse_moved_names(monkeypatch, methods=()):
    """Make every moved name, and the given further RatFunc methods, raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a moved name was called")

    for name in MOVED_METHODS + tuple(methods):
        monkeypatch.setattr(RatFunc, name, refuse)
    for name in MOVED_FUNCTIONS:
        monkeypatch.setattr(multipoly, name, refuse)


def test_d_identity_sums_keyed_terms_only(capsys, monkeypatch):
    """verify d-identity forms P^+_i P^-_i subset pair by subset pair and
    never adds or multiplies whole rational functions."""
    _refuse_moved_names(monkeypatch, ("__mul__", "__rmul__"))
    code, out, _ = run(capsys, "verify", "d-identity", "--quiver", "a2",
                       "--w", "2,2", "--v", "3,3", "--json")
    assert code == 0 and json.loads(out)["all_hold"] is True


@pytest.mark.parametrize("argv", [
    "verify restriction --quiver a2 --w 2,2 --v 3,3 --vprime 2,2",
    "verify adding-defect --quiver a2 --w 2,2 --v 3,3 --vprime 2,2",
    "verify km-embedding --quiver a2 --w 2,2 --v 3,3 --vprime 2,2",
    "verify involution --quiver a2 --w 2,2 --v 2,2",
    "verify orientation --quiver a2 --w 2,2 --v 2,2",
    # a head-tail form divides --f, so the value is the keyed sum of its terms
    "fmo --quiver a2 --w 2,2 --v 3,2 --m 1,1 --sign - --f (w[1,1]-w[1,2])*(w[1,1]-w[1,3])",
])
def test_cli_routes_call_no_moved_name(capsys, monkeypatch, argv):
    _refuse_moved_names(monkeypatch)
    code, out, err = run(capsys, *argv.split(), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out).get("all_hold", True) is True


# (charges, dressings outside the core) of each run; every charge of the
# restriction target has a dressing with tilde(f) = 0, whose value is zero
# without any subset term
MINUS_TERM_RUNS = {
    "verify involution --quiver a2 --w 2,2 --v 2,2": (9, 0),
    "verify restriction --quiver a2 --w 2,2 --v 2,2 --vprime 1,1 --sign -": (4, 0),
}


@pytest.mark.parametrize("argv", list(MINUS_TERM_RUNS))
def test_each_involution_report_builds_the_minus_terms_once(capsys, monkeypatch, argv):
    """The subset terms of M^-_m are built once per charge at f = 1, where
    both the core that every reported M^-_m(f) is read from and the swap
    identity read them, and once per dressing that the core does not cover
    (a head-tail dressing; f = 0 builds none); negative restriction reads
    M^- from restrict_fmo_slice and builds no terms of its own."""
    charges, fallbacks = MINUS_TERM_RUNS[argv]
    calls = []
    real = gklo.fmo_minus_terms

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gklo, "fmo_minus_terms", counted)
    code, out, err = run(capsys, *argv.split(), "--json")
    assert (code, err) == (0, "") and json.loads(out)["checked"] > 0
    assert gklo._fmo_core.cache_info().misses == charges
    per_unit_charge = Counter((ctx, m) for ctx, m, f in calls if f.value == 1)
    assert len(per_unit_charge) == charges and set(per_unit_charge.values()) == {1}
    others = [f for _, _, f in calls if f.value != 1]
    assert len(others) == fallbacks and all(f.is_zero() for f in others)
    assert len(calls) == charges + fallbacks


@pytest.mark.parametrize("argv,lines", [
    # 180 kB of JSON, more than a pipe holds: the reader leaves mid-report
    ("verify km-embedding --quiver a2 --w 2,2 --v 2,2 --vprime 1,1 --json", 2),
    # a short report still buffered when the reader has gone: the final flush fails
    ("classify --quiver a2 --w 2,2 --v 2,2 --json", 0),
])
def test_closed_stdout_exits_quietly_with_its_own_code(argv, lines):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "quiver_fmo.cli", *argv.split()],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()  # as `| head -<lines>` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_CLOSED_STDOUT
    assert err == b""
    assert head == [b"{\n", b'  "all_hold": true,\n'][:lines]


def _one_gigabyte_address_space():
    # runs in the child between fork and exec; the limit is the child's own
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"),
                    reason="no RLIMIT_AS here to cap the child's address space")
@pytest.mark.parametrize("argv,code", [
    # the shell-point pre-count that preceded the cut budget ran out of
    # memory here and crashed with a traceback
    ("hilbert --quiver a1 --w 120 --v 60 --order 200 --json", 0),
    ("hilbert --quiver a2 --w 30,30 --v 30,30 --order 1000 --json", 2),
])
def test_hilbert_under_a_memory_cap_computes_or_refuses(argv, code):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "quiver_fmo.cli", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_one_gigabyte_address_space)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == "" and len(json.loads(proc.stdout)["coeffs"]) == 201
    else:
        assert elapsed < 1.0 and proc.stdout == ""
        assert proc.stderr.startswith("refused: ") and proc.stderr.count("\n") == 1


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-2 ** 200, max_value=2 ** 200) | st.text())
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"q\"uote": ['back\\slash', "\x00\x1f\x7f\n\t", "\u00e9\u2603\U0001d11e"],
          "big": [2 ** 100, -2 ** 100, 0, -1], "flags": [True, False, None],
          "empty": [{}, [], (), ""], "": {"nested": {"a": [[], {}]}}})
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


# the token alphabet of the reader's equivalence test: near-miss commands and
# subjects, every long option with the spellings only argparse reads, and
# values that argparse classifies in different ways
READER_COMMANDS = [*cli.GRAMMAR, "verif", "bogus"]
READER_SUBJECTS = [*cli.VERIFY_SUBJECTS, "restrict"]
READER_OPTIONS = sorted({flag for _, _, _, options in cli.GRAMMAR.values()
                         for flag, _, _, _ in options}) + [
    "--ord", "--max", "--max_degree", "--order=3", "--w=2", "--sign=+", "-h", "--", "--bogus"]
READER_VALUES = ["", "-", "-5", "-w[1,1]", "- 1", " 5", "5_0", "+", "x", "2", "2,2", "a1"]


@st.composite
def command_lines(draw):
    """A command, a subject for verify and now and then for the others, the
    command's required options in among a few others (mostly its own), each
    with a value (--json only now and then), and now and then one stray
    token."""
    argv = [draw(st.sampled_from(READER_COMMANDS))]
    if argv[0] == "verify" or draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(READER_SUBJECTS)))
    own = cli.GRAMMAR[argv[0]][3] if argv[0] in cli.GRAMMAR else ()
    options = [flag for flag, required, _, _ in own if required] or ["--quiver", "--w", "--v"]
    extra = st.sampled_from([flag for flag, _, _, _ in own] or READER_OPTIONS)
    options += draw(st.lists(extra | st.sampled_from(READER_OPTIONS), max_size=4))
    for option in draw(st.permutations(options)):
        argv.append(option)
        if option != "--json" or draw(st.integers(0, 9)) == 0:
            argv.append(draw(st.sampled_from(["1", "2,2", "+"]) | st.sampled_from(READER_VALUES)))
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(READER_SUBJECTS + READER_OPTIONS + READER_VALUES)))
    return argv


def _argparse_namespace(argv):
    """build_parser().parse_args(argv), or None where argparse exits."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(["hilbert", "--quiver", "a2", "--w", "2,2", "--v", "2,2", "--order", " 5", "--json"])
@example(["fmo", "--m", "1", "--quiver", "a1", "--w", "2", "--v", "2", "--sign", "-"])
@example(["verify", "involution", "--quiver", "a1", "--w", "2", "--v", "", "--max-degree", "5_0"])
def test_direct_reader_gives_argparse_namespace_or_declines(argv):
    read = cli._read_argv(argv)
    if read is not None:
        assert read == _argparse_namespace(argv), argv


def test_direct_reader_accepts_every_table_op():
    ops = json.loads((Path(__file__).resolve().parent.parent / "bench"
                      / "table.json").read_text())["ops"]
    parser = cli.build_parser()
    for op in ops:
        read = cli._read_argv(op.split())
        assert read is not None and read == parser.parse_args(op.split()), op


def _main_bytes(argv):
    """(stdout, stderr, exit code) of main(argv) in-process, where an argparse
    exit gives ("exit", its code)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return out.getvalue(), err.getvalue(), code


# lines outside the reader's form: argparse reads, or refuses, every one
DECLINED_LINES = [
    "", "-h", "--help", "hilbert -h", "verify --help", "verify restriction -h",
    "hilbert --quiver a1 --w 2 --v 1 --ord 3 --json",
    "hilbert --quiver a1 --w 2 --v 1 --order=3 --json",
    "hilbert --quiver a1 --w 2 --v 1 --order 3 --order 4 --json",
    "verify --quiver a1 --w 2 --v 1 d-identity --json",
    "fmo --quiver a1 --w 2 --v 2 --m -1 --json",
    "fmo --quiver a1 --w 2 --v 2 --m 1 --f -w[1,1] --json",
    "hilbert --quiver a1 --w 2 --v 1 --order -3",
    "hilbert --quiver a1 --w 2 --v 1 --order x",
    "hilbert --quiver a1 --w 2 --v 1",
    "verify bogus --quiver a1 --w 2 --v 1",
    "fmo --quiver a1 --w 2 --v 1 --sign x",
    "bogus --quiver a1",
    "classify --quiver a1 --w 2 --v 1 --bogus",
    "classify --quiver a1 --w 2 --v 1 -- --json",
    "verify involution --quiver a1 --w 2 --v 1 --max_degree 1 --json",
]


@pytest.mark.parametrize("line", DECLINED_LINES)
def test_declined_lines_keep_the_argparse_bytes(monkeypatch, line):
    argv = line.split()
    assert cli._read_argv(argv) is None
    direct = _main_bytes(argv)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert _main_bytes(argv) == direct


def test_module_run_reads_sys_argv_like_main():
    argv = "hilbert --quiver a2 --w 2,2 --v 2,2 --order 10 --json".split()
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "quiver_fmo.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.stdout, proc.stderr, proc.returncode) == _main_bytes(argv)


def _cheapest_table_op_per_route():
    """The table op of least recorded cost for each command and each verify
    subject, with its stdout sha256 and exit code."""
    ops = json.loads((Path(__file__).resolve().parent.parent / "bench"
                      / "table.json").read_text())["ops"]
    cheapest = {}
    for op, row in sorted(ops.items(), key=lambda item: (item[1]["cost_s"], item[0])):
        argv = op.split()
        cheapest.setdefault(tuple(argv[:2] if argv[0] == "verify" else argv[:1]),
                            (argv, row["sha256"], row["exit"]))
    return list(cheapest.values())


def test_well_formed_lines_build_no_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("the argparse tree was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    ops = _cheapest_table_op_per_route()
    assert len(ops) == 3 + len(cli.VERIFY_SUBJECTS)
    for argv, sha, exit_code in ops:
        code, out, err = run(capsys, *argv)
        assert (hashlib.sha256(out.encode()).hexdigest(), code, err) == (sha, exit_code, ""), argv
