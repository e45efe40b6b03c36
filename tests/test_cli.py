import json

import pytest

from qhayd.cli import main
from qhayd.jsonio import dump_json, load_json_file


@pytest.fixture
def emitted(tmp_path):
    out = tmp_path / "h4"
    assert main(["zoo", "emit", "h4", "--out", str(out)]) == 0
    return out


def test_zoo_list_runs(capsys):
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    assert "h4" in out and "k2w" in out


def test_validate_zoo_algebra(emitted):
    assert main(["validate", str(emitted / "algebra.json")]) == 0


def test_validate_rejects_malformed_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2}')
    assert main(["validate", str(bad)]) == 2


def test_validate_detects_logical_failure(tmp_path, emitted):
    doc = load_json_file(emitted / "algebra.json")
    doc["counit"] = ["1", "1", "1", "0"]  # corrupt eps(x)
    bad = tmp_path / "corrupt.json"
    bad.write_text(dump_json(doc))
    assert main(["validate", str(bad)]) == 1


def test_module_check(emitted):
    assert main(["module", "check", str(emitted / "module_regular.json")]) == 0


def test_ayd_check_exit_codes(emitted, capsys):
    assert main(["ayd", "check", "--type", "I", str(emitted / "ayd_k_g.json")]) == 0
    capsys.readouterr()
    assert main(["ayd", "check", str(emitted / "ayd_chi_minus_g.json")]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "@ (2," in out  # witness names the basis element x


def test_ayd_convert_round_trip(emitted, tmp_path):
    out2 = tmp_path / "as_ii.json"
    assert main(["ayd", "convert", str(emitted / "ayd_k_g.json"),
                 "--to", "II", "--out", str(out2)]) == 0
    back = tmp_path / "as_i.json"
    assert main(["ayd", "convert", str(out2), "--to", "I", "--out", str(back)]) == 0
    orig = load_json_file(emitted / "ayd_k_g.json")
    got = load_json_file(back)
    assert got["map"] == orig["map"]


def test_ayd_tau(emitted, tmp_path, capsys):
    out = tmp_path / "tau.json"
    code = main(["ayd", "tau", str(emitted / "ayd_k_g.json"),
                 "--v", str(emitted / "module_regular.json"), "--out", str(out)])
    assert code == 0
    doc = load_json_file(out)
    assert doc["h_linear"] is True
    assert doc["source_dim"] == 4 and doc["target_dim"] == 4
    assert set(doc) >= {"source", "target", "matrix"}


def test_ayd_stability(emitted):
    assert main(["ayd", "stability", str(emitted / "ayd_k_g.json")]) == 0
    assert main(["ayd", "stability", str(emitted / "ayd_chi_minus_g.json")]) == 1


def test_ayd_solve_and_budget(tmp_path, capsys):
    zdir = tmp_path / "z2f3"
    assert main(["zoo", "emit", "z2", "--field", "fp:3", "--out", str(zdir)]) == 0
    results = tmp_path / "results.json"
    code = main(["ayd", "solve", "--type", "I", "--module",
                 str(zdir / "module_trivial.json"), "--over", "fp:3",
                 "--out", str(results)])
    assert code == 0
    doc = load_json_file(results)
    assert doc["count"] == 2
    # budget guard refuses cleanly with exit 2
    code = main(["ayd", "solve", "--type", "I", "--module",
                 str(zdir / "module_regular.json"), "--budget", "2"])
    assert code == 2


def test_solve_field_mismatch(emitted):
    code = main(["ayd", "solve", "--type", "I", "--module",
                 str(emitted / "module_trivial.json"), "--over", "fp:3"])
    assert code == 2


def test_solve_malformed_budget_env(emitted, monkeypatch, capsys):
    monkeypatch.setenv("QHAYD_BUDGET", "abc")
    code = main(["ayd", "solve", "--type", "I", "--module", str(emitted / "module_trivial.json")])
    assert code == 2
    assert "error: QHAYD_BUDGET" in capsys.readouterr().err


def test_dsl_check(emitted, tmp_path, capsys):
    from qhayd.dsl.corpus import corpus_text

    eq = tmp_path / "ayd_module.swd"
    eq.write_text(corpus_text("ayd_module"))
    ayd = load_json_file(emitted / "ayd_k_g.json")
    ctx = tmp_path / "bindings.json"
    ctx.write_text(dump_json({
        "algebra": "../h4/algebra.json" if False else str(emitted / "algebra.json"),
        "modules": {"M": str(emitted / "module_trivial.json")},
        "coactions": {"rho": {"module": "M", "map": ayd["map"]}},
    }))
    assert main(["dsl", "check", "--eq", str(eq), "--ctx", str(ctx)]) == 0
    bad = load_json_file(emitted / "ayd_chi_minus_g.json")
    ctx2 = tmp_path / "bindings2.json"
    ctx2.write_text(dump_json({
        "algebra": str(emitted / "algebra.json"),
        "modules": {"M": str(emitted / "module_chi_minus.json")},
        "coactions": {"rho": {"module": "M", "map": bad["map"]}},
    }))
    capsys.readouterr()
    assert main(["dsl", "check", "--eq", str(eq), "--ctx", str(ctx2)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "assignment" in out


def test_dsl_check_rejects_bad_syntax(tmp_path):
    eq = tmp_path / "bad.swd"
    eq.write_text("var h : algebra\nh^{1} (x) h^{3} = h (x) h")
    ctx = tmp_path / "ctx.json"
    ctx.write_text(dump_json({"algebra": {"field": {"type": "Q"}}}))
    assert main(["dsl", "check", "--eq", str(eq), "--ctx", str(ctx)]) == 2


@pytest.mark.parametrize("argv", [
    ["validate", "{missing}"],
    ["ayd", "check", "{missing}"],
    ["dsl", "check", "--eq", "{missing}", "--ctx", "{ctx}"],
    ["dsl", "check", "--eq", "{eq}", "--ctx", "{missing}"],
])
def test_missing_input_file_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    eq = tmp_path / "eq.swd"
    eq.write_text("var h : algebra\nh = h")
    ctx = tmp_path / "ctx.json"
    ctx.write_text(dump_json({"algebra": {"field": {"type": "Q"}}}))
    missing = tmp_path / "nonexist.json"
    argv = [a.format(missing=missing, eq=eq, ctx=ctx) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read {missing}" in err


def test_json_reports_are_byte_identical(emitted, capsys):
    main(["validate", str(emitted / "algebra.json"), "--json"])
    first = capsys.readouterr().out
    main(["validate", str(emitted / "algebra.json"), "--json"])
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["exit_code"] == 0
    assert "timing" not in doc
    assert all(item["passed"] for item in doc["checks"])


def test_stdin_input(emitted, capsys, monkeypatch):
    import io

    text = (emitted / "algebra.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["validate", "-"]) == 0


def test_manifest_emission_round_trip(emitted, tmp_path):
    man = load_json_file(emitted / "manifest.json")
    assert man["name"] == "h4"
    assert man["ayd"]["k_g"]["stable"] is True
    assert man["ayd"]["chi_minus_g"]["valid"] is False
    # re-emit and compare byte-for-byte
    again = tmp_path / "again"
    assert main(["zoo", "emit", "h4", "--out", str(again)]) == 0
    for name in ("algebra.json", "manifest.json", "ayd_k_g.json"):
        assert (again / name).read_text() == (emitted / name).read_text()
