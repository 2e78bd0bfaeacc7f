"""CLI wiring: argument handling, output formats, and exit codes."""

import json

import pytest

from indephorn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_indep_cycle4(capsys):
    code, out, _ = run(capsys, "indep", "--cycle", "4")
    assert code == 0
    assert out.strip() == "1 + x1 + x2 + x3 + x4 + x1*x3 + x2*x4"


def test_indep_json(capsys):
    code, out, _ = run(capsys, "indep", "--complete", "2", "--json")
    data = json.loads(out)
    assert data["nvars"] == 2
    assert {tuple(t["m"]): t["c"] for t in data["terms"]} == {
        (0, 0): "1",
        (1, 0): "1",
        (0, 1): "1",
    }


def test_chordal_yes_no(capsys):
    code, out, _ = run(capsys, "chordal", "--cycle", "4")
    assert code == 0
    assert out.strip() == "NO, induced C4: 1 2 3 4"
    code, out, _ = run(capsys, "chordal", "--path", "4")
    assert code == 0
    assert out.startswith("YES, PEO:")


def test_peo_exit_codes(capsys):
    code, out, _ = run(capsys, "peo", "--path", "3")
    assert code == 0 and out.split() == ["1", "2", "3"]
    code, _, err = run(capsys, "peo", "--cycle", "5")
    assert code == 1 and "not chordal" in err


def test_graph_file_input(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("2\n1 2\n")
    code, out, _ = run(capsys, "indep", "--file", str(f))
    assert code == 0 and out.strip() == "1 + x1 + x2"


def test_expand_cross_check(capsys):
    code, out, _ = run(
        capsys, "expand", "--path", "3", "--order", "2", "--cross-check"
    )
    assert code == 0
    assert "direct: agree" in out and "traces: agree" in out


def test_expand_method_gating(capsys):
    code, _, err = run(
        capsys,
        "expand", "--cycle", "4", "--order", "2",
        "--method", "closed-form",
    )
    assert code == 2 and "not applicable" in err


def test_expand_method_computes_only_that_method(monkeypatch, capsys):
    from indephorn import nahm, tracemonoid

    def unreachable(*args, **kwargs):
        raise AssertionError("route not requested")

    monkeypatch.setattr(tracemonoid, "count_traces", unreachable)
    monkeypatch.setattr(nahm, "chordal_power_formula", unreachable)
    code, out, _ = run(
        capsys, "expand", "--path", "3", "--order", "2", "--method", "direct"
    )
    assert code == 0 and out.startswith("0 0 0 : 1")


def test_horn_check_degree_at_box_order(capsys):
    code, _, err = run(
        capsys, "horn-check", "--cycle", "4", "--order", "4", "--degree", "4"
    )
    assert code == 2 and err.startswith("error: degree 4 reaches the box order")


def test_expand_half_power(capsys):
    code, out, _ = run(
        capsys,
        "expand", "--path", "2", "--s", "1/2", "--order", "1",
        "--method", "direct", "--json",
    )
    data = json.loads(out)
    coeffs = {tuple(t["m"]): t["c"] for t in data["terms"]}
    assert coeffs[(1, 0)] == "-1/2"


def test_horn_check_json(capsys):
    code, out, _ = run(
        capsys,
        "horn-check", "--complete", "2", "--order", "8", "--degree", "1",
        "--json",
    )
    data = json.loads(out)
    assert code == 0
    assert data["verdict"].startswith("Horn up to")
    assert all(d["fit"] for d in data["directions"])


def test_nahm_solve(tmp_path, capsys):
    f = tmp_path / "mat.txt"
    f.write_text("0 1\n1 0\n")
    code, out, _ = run(
        capsys, "nahm", "solve", "--matrix", str(f), "--order", "2"
    )
    data = json.loads(out)
    assert code == 0
    d_coeffs = {tuple(t["m"]): t["c"] for t in data["D"]["terms"]}
    assert d_coeffs == {(0, 0): "1", (1, 1): "1", (2, 2): "1"}


def test_traces(capsys):
    code, out, _ = run(capsys, "traces", "--cycle", "4", "--content", "1,1,1,1")
    assert code == 0 and out.strip() == "14"


def test_traces_bad_content(capsys):
    code, _, err = run(capsys, "traces", "--cycle", "4", "--content", "1,1")
    assert code == 2


def test_cycle_debruijn(capsys):
    code, out, _ = run(capsys, "cycle", "debruijn", "--n", "4", "--k", "1")
    assert code == 0 and out.strip() == "14"


def test_cycle_coeffs(capsys):
    code, out, _ = run(
        capsys, "cycle", "coeffs", "--n", "3", "--order", "1", "--json"
    )
    data = json.loads(out)
    assert code == 0
    coeffs = {tuple(t["m"]): t["c"] for t in data["terms"]}
    assert coeffs[(1, 1, 1)] == "6"


def test_cycle_dixon(capsys):
    code, out, _ = run(capsys, "cycle", "dixon", "--m", "1,1,1", "--k", "1")
    assert code == 0 and out.strip() == "PASS"


def test_cycle_verify_all(capsys):
    code, out, _ = run(capsys, "cycle", "verify-all", "--n", "3", "--order", "2")
    assert code == 0
    assert "FAIL" not in out


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_graph_source_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["indep"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--cycle", "4", "--order", "-1"],
        ["horn-check", "--path", "3", "--order", "3", "--degree", "-1"],
        ["nahm", "solve", "--matrix", "m.txt", "--order", "-1"],
        ["cycle", "coeffs", "--n", "3", "--order", "-1"],
    ],
)
def test_negative_order_or_degree_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be non-negative: -1" in capsys.readouterr().err
