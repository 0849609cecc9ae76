"""End-to-end command-line checks: exit-code contract, JSON shape, and
determinism of the output bytes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

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
])
def test_malformed_quiver_file_exits_2(capsys, tmp_path, data):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(data))
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


def test_failing_negative_restriction_takes_the_termwise_route(capsys, monkeypatch):
    import sys
    from quiver_fmo import defect_embed, gklo
    from quiver_fmo.multipoly import RatFunc

    real = gklo.chevalley
    for name, module in list(sys.modules.items()):
        if name.startswith("quiver_fmo") and getattr(module, "chevalley", None) is real:
            monkeypatch.setattr(module, "chevalley", _raise)
    monkeypatch.setattr(RatFunc, "subs_u", _raise)
    monkeypatch.setattr(defect_embed, "identity_holds", lambda keyed: False)
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
    for subject in sorted(VERIFY_SUBJECTS):
        code, out, err = run(capsys, "verify", subject, "--quiver", "a2", "--w", "2,2",
                             "--v", "2,2", "--vprime", "1,1", "--json")
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
])
def test_invalid_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "classify --quiver a2 --w 1,1 --v 4000,4000",
    "hilbert --quiver a2 --w 2,2 --v 2,2 --order 60",
    # the series accumulation is quadratic in the order; v = 0 allocated it
    "hilbert --quiver a1 --w 4 --v 1 --order 100000",
    "hilbert --quiver a1 --w 4 --v 0 --order 1000000",
    # 252 subsets, but each numerator would expand over all 45 forms x_a - x_b
    "fmo --quiver a1 --w 2 --v 10 --m 5 --json",
])
def test_enumeration_over_budget_is_refused(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


CHEAP_VERIFY_SUBJECTS = ("restriction", "adding-defect", "km-embedding", "involution",
                         "orientation")


def _table_ops():
    """classify, fmo and verify d-identity ops, hilbert ops up to order 10
    and the ops of the other verify subjects recorded at <= 0.1 s from the
    benchmark table, with the stdout sha256 and exit code recorded there."""
    path = Path(__file__).resolve().parent.parent / "bench" / "table.json"
    ops = json.loads(path.read_text())["ops"]
    for key, row in sorted(ops.items()):
        argv = key.split()
        if argv[0] in ("classify", "fmo") or argv[:2] == ["verify", "d-identity"] or (
                argv[0] == "hilbert" and int(argv[argv.index("--order") + 1]) <= 10) or (
                argv[0] == "verify" and argv[1] in CHEAP_VERIFY_SUBJECTS
                and row["cost_s"] <= 0.1):
            yield argv, row["sha256"], row["exit"]


def test_table_ops_byte_identical(capsys):
    ops = list(_table_ops())
    assert {argv[1] for argv, _, _ in ops if argv[0] == "verify"} == \
        {"d-identity", *CHEAP_VERIFY_SUBJECTS}
    for argv, sha, exit_code in ops:
        code, out, err = run(capsys, *argv)
        assert (hashlib.sha256(out.encode()).hexdigest(), code, err) == (sha, exit_code, ""), argv


def test_d_identity_sums_keyed_terms_only(capsys, monkeypatch):
    """verify d-identity forms P^+_i P^-_i subset pair by subset pair and
    never adds or multiplies whole rational functions."""
    def refuse(self, other):
        raise AssertionError("whole-element RatFunc arithmetic")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(RatFunc, name, refuse)
    code, out, _ = run(capsys, "verify", "d-identity", "--quiver", "a2",
                       "--w", "2,2", "--v", "3,3", "--json")
    assert code == 0 and json.loads(out)["all_hold"] is True


@pytest.mark.parametrize("argv", [
    "verify involution --quiver a2 --w 2,2 --v 2,2",
    "verify restriction --quiver a2 --w 2,2 --v 2,2 --vprime 1,1 --sign -",
])
def test_each_involution_report_builds_the_minus_terms_once(capsys, monkeypatch, argv):
    """The involution report builds the subset terms of M^-_m(f) once, for
    the swap identity and the reported M^-; negative restriction reads M^-
    from that report and builds no terms of its own."""
    from quiver_fmo import gklo

    calls = []
    real = gklo.fmo_minus_terms

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gklo, "fmo_minus_terms", counted)
    code, out, err = run(capsys, *argv.split(), "--json")
    misses = gklo.involution_fmo_report.cache_info().misses
    assert (code, err) == (0, "") and json.loads(out)["checked"] > 0
    assert misses > 0 and len(calls) == misses


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
