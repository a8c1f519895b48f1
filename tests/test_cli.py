"""CLI behaviour: exit codes, formats, corpus runner, config handling."""

import dataclasses
import io
import json
from pathlib import Path

import pytest

from lacuna.classifier import ClassifyOptions
from lacuna.cli_reports import (
    _OPTION_KINDS,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNDECIDED,
    _parse_pattern_arg,
    main,
)

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
# outside input with a zero denominator: a classify input and a plusdim basis
ZERO_DENOMINATOR_COEFFS = {"coeffs": [[1, 0, 0, 1], [1, 1, 0, 1]]}
ZERO_DENOMINATOR_BASIS = {"d": 1, "basis": [["1/0", 0, 0]]}


def test_classify_text(capsys):
    code = main(["classify", "(z - 1/2)(8 - z^3)", "--pattern", "4:2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "extreme: yes (via rank)" in out
    assert "exposed: yes (via simple_circle_zeros)" in out
    assert "rank 2, kernel dimension 1" in out


def test_classify_text_factors_out_scalar(capsys):
    main(["classify", "(z - 1/2)(8 - z^3)", "--pattern", "4:2"])
    out = capsys.readouterr().out
    # the exact constraint matrix 2*[[4,5,0],[0,0,3]] prints factored
    assert "2 x" in out
    assert "[4  5  0]" in out
    assert "[0  0  3]" in out


def test_classify_json(capsys):
    code = main(
        ["classify", "(z - 1/2)(2 - z)(1 + z^4)", "--pattern", "6:3", "--format", "json"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "lacuna/1"
    assert doc["verdicts"] == {"extreme": False, "exposed": False}
    assert doc["fast_paths"]["exposed"] == "not_extreme"
    assert doc["matrix"]["rows"] == [["0", "0", "0"], ["0", "0", "0"]]
    assert doc["matrix"]["rank"] == 0 and doc["matrix"]["kernel_dim"] == 3
    assert abs(doc["norm"]["value"] - 10 / 3.141592653589793) < 1e-9
    kinds = sorted(w["kind"] for w in doc["witnesses"])
    assert kinds == ["non_exposed", "non_extreme"]


def test_classify_json_byte_stable(capsys):
    argv = ["classify", "(z - 1/2)(2 - z)(1 + z^4)", "--pattern", "6:3",
            "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_classify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["classify", "1 + z/2", "--pattern", "1", "--format", "json",
         "--out", str(target)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["verdicts"] == {"extreme": True, "exposed": True}


def test_classify_at_file_and_stdin(tmp_path, capsys, monkeypatch):
    src = tmp_path / "poly.txt"
    src.write_text("1 + z/2\n")
    assert main(["classify", f"@{src}", "--pattern", "1"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("1 + z/2"))
    assert main(["classify", "-", "--pattern", "1"]) == EXIT_OK


def test_classify_infer_pattern(capsys):
    code = main(
        ["classify", "(z - 1/2)(2 - z)(1 + z^4)", "--infer-pattern", "--format", "json"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["pattern"] == {"N": 6, "forbidden": [3]}


def test_classify_no_witnesses(capsys):
    code = main(
        ["classify", "(z - 1/2)(2 - z)(1 + z^4)", "--pattern", "6:3",
         "--no-witnesses", "--format", "json"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["witnesses"] == []


def test_classify_missing_pattern_errors(capsys):
    code = main(["classify", "1 + z/2"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "error:" in err


def test_classify_spectrum_violation_errors(capsys):
    code = main(["classify", "1 + z^3", "--pattern", "6:3"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "forbidden exponent" in err


def test_classify_unreadable_file_errors(capsys):
    code = main(["classify", "@/nonexistent/poly.txt", "--pattern", "1"])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_classify_undecided_exit(capsys, monkeypatch):
    import lacuna.classifier as mod
    from lacuna import RankIndeterminate

    def raising(*args, **kwargs):
        raise RankIndeterminate("no safe gap", singular_values=(1.0, 1e-9))

    monkeypatch.setattr(mod, "rank_and_kernel", raising)
    code = main(["classify", "(z - 1/2)(8 - z^3)", "--pattern", "4:2"])
    out = capsys.readouterr().out
    assert code == EXIT_UNDECIDED
    assert "UNDECIDED" in out
    assert "no safe gap" in out


def test_classify_stalled_cone_solver_exit(capsys):
    # the cone solver neither converges nor plateaus on this tilde kernel
    code = main(
        ["classify", "(1 - z^3)^4", "--pattern", "12:1,2,4,5,7,8,10,11", "--mode", "exact"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_UNDECIDED
    assert "extreme: yes" in out
    assert "exposed: UNDECIDED" in out
    assert "undecided: cone solver stalled" in out
    assert "witness" not in out


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "lacuna.cfg"
    cfg.write_text(
        "# defaults for this project\n"
        "mode = float\n"
        "witnesses = off\n"
        "pattern = 6:3\n"
        "format = json\n"
    )
    code = main(["classify", "(z - 1/2)(2 - z)(1 + z^4)", "--config", str(cfg)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "float"
    assert doc["witnesses"] == []
    assert doc["pattern"] == {"N": 6, "forbidden": [3]}


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "lacuna.cfg"
    cfg.write_text("mode = float\nformat = json\n")
    code = main(
        ["classify", "1 + z/2", "--pattern", "1", "--config", str(cfg),
         "--mode", "exact", "--format", "text"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "mode: exact" in out


def test_bad_config_line_errors(tmp_path, capsys):
    cfg = tmp_path / "lacuna.cfg"
    # a malformed line, a misspelled key, and the retired rank_gap key
    for text, named in (
        ("this is not a key value pair\n", "key=value"),
        ("witnesess = off\n", "'witnesess'"),
        ("rank_gap = 10\n", "'rank_gap'"),
    ):
        cfg.write_text(text)
        code = main(["classify", "1 + z/2", "--pattern", "1", "--config", str(cfg)])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""


def test_pattern_arg_parsing():
    pat = _parse_pattern_arg("6:3")
    assert (pat.N, pat.forbidden) == (6, (3,))
    pat = _parse_pattern_arg("4")
    assert (pat.N, pat.forbidden) == (4, ())
    pat = _parse_pattern_arg("9:2,5,7")
    assert pat.forbidden == (2, 5, 7)
    with pytest.raises(ValueError):
        _parse_pattern_arg("x")


def test_norm_subcommand(capsys):
    code = main(["norm", "1 + z"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["norm"] - 4 / 3.141592653589793) < 1e-10
    assert doc["error_bound"] < 1e-9


def test_plusdim_subcommand(tmp_path, capsys):
    basis = tmp_path / "v2.json"
    basis.write_text(json.dumps({
        "d": 2,
        "basis": [["1", "0", "-1", "0", "0"], ["0", "1", "0", "0", "0"]],
    }))
    code = main(["plusdim", f"@{basis}"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_plus"] == 1
    assert len(doc["vectors"]) == 1


def test_plusdim_zero_dimension(tmp_path, capsys):
    basis = tmp_path / "v1.json"
    basis.write_text(json.dumps({"d": 1, "basis": [["0", "1", "0"]]}))
    code = main(["plusdim", f"@{basis}"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["dim_plus"] == 0


def test_plusdim_stalled_exit(tmp_path, capsys, monkeypatch):
    import lacuna.cli_reports as mod
    from lacuna import SolverStalled

    def raising(*args, **kwargs):
        raise SolverStalled("projections oscillate")

    monkeypatch.setattr(mod, "plus_dimension", raising)
    basis = tmp_path / "v1.json"
    basis.write_text(json.dumps({"d": 1, "basis": [["0", "1", "0"]]}))
    code = main(["plusdim", f"@{basis}"])
    assert code == EXIT_UNDECIDED
    assert "undecided" in capsys.readouterr().err


def test_plusdim_bad_row_length_errors(tmp_path, capsys):
    basis = tmp_path / "bad.json"
    basis.write_text(json.dumps({"d": 2, "basis": [["1", "0"]]}))
    assert main(["plusdim", f"@{basis}"]) == EXIT_ERROR


def test_corpus_shipped(capsys):
    code = main(["corpus", str(CORPUS_DIR)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines[:-1])
    total = len(list(CORPUS_DIR.glob("*.json")))
    assert lines[-1] == f"{total}/{total} passed"


def test_corpus_detects_wrong_expectation(tmp_path, capsys):
    job = {
        "name": "deliberately-wrong",
        "input": "1 + z/2",
        "pattern": {"N": 1, "forbidden": []},
        "expect": {"extreme": False},
    }
    (tmp_path / "wrong.json").write_text(json.dumps(job))
    ok_job = {
        "input": "1 + z/2",
        "pattern": {"N": 1, "forbidden": []},
        "expect": {"extreme": True, "exposed": True},
    }
    (tmp_path / "right.json").write_text(json.dumps(ok_job))
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_ERROR
    assert "FAIL deliberately-wrong: extreme: expected False, got True" in out
    assert "PASS right" in out
    assert "1/2 passed" in out


def test_corpus_empty_dir_warns(tmp_path, capsys):
    code = main(["corpus", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "warning" in captured.err


def test_corpus_malformed_json_errors(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{not json")
    code = main(["corpus", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "lacuna" in capsys.readouterr().out


def test_corpus_bad_jobs_fail_without_stopping_the_run(tmp_path, capsys):
    good = {
        "input": "1 + z/2",
        "pattern": {"N": 1, "forbidden": []},
        "expect": {"extreme": True, "exposed": True},
    }
    (tmp_path / "a_good.json").write_text(json.dumps(good))
    (tmp_path / "b_no_input.json").write_text(
        json.dumps({"pattern": {"N": 1, "forbidden": []}, "expect": {}})
    )
    (tmp_path / "c_not_json.json").write_text("{not json")
    zero = {"input": "0", "pattern": {"N": 1, "forbidden": []}, "expect": {}}
    (tmp_path / "d_zero_polynomial.json").write_text(json.dumps(zero))
    zero_den = {"input": ZERO_DENOMINATOR_COEFFS, "pattern": {"N": 1}, "expect": {}}
    (tmp_path / "e_zero_denominator.json").write_text(json.dumps(zero_den))
    (tmp_path / "f_basis_zero_denominator.json").write_text(
        json.dumps(ZERO_DENOMINATOR_BASIS)
    )
    # option values of the wrong JSON type: a truthy string, a numeric string
    for name, option in (("g_string_bool", {"generate_witnesses": "false"}),
                         ("h_string_number", {"eps_circle": "1e-8"})):
        job = {"input": "(1 - z)^2", "pattern": {"N": 2}, "options": option,
               "expect": {"witness_kinds": []}}
        (tmp_path / f"{name}.json").write_text(json.dumps(job))
    (tmp_path / "i_good_again.json").write_text(json.dumps(good))
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_ERROR
    assert out[0] == "PASS a_good: ok"
    assert out[1].startswith("FAIL b_no_input:") and "missing key 'input'" in out[1]
    assert out[2].startswith("FAIL c_not_json:") and "JSONDecodeError" in out[2]
    assert out[3].startswith("FAIL d_zero_polynomial:") and "zero polynomial" in out[3]
    assert out[4].startswith("FAIL e_zero_denominator:") and "ParseError" in out[4]
    assert out[5].startswith("FAIL f_basis_zero_denominator:") and "'1/0'" in out[5]
    assert out[6].startswith("FAIL g_string_bool:")
    assert "'generate_witnesses' takes a boolean" in out[6]
    assert out[7].startswith("FAIL h_string_number:")
    assert "'eps_circle' takes a number" in out[7]
    assert out[8] == "PASS i_good_again: ok"
    assert out[9] == "2/9 passed"


def test_corpus_non_finite_jobs_fail_one_line_each(tmp_path, capsys):
    jobs = {
        "a_basis": {"d": 1, "basis": [["1e999", 0, 0]]},
        "b_input": {"input": "10^400 + z", "pattern": {"N": 1}},
        "c_input_json": {"input": {"coeffs_f": [[float("nan"), 0], [1, 0]]}, "pattern": {"N": 1}},
    }
    for name, job in jobs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(job))
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_ERROR
    assert out[0].startswith("FAIL a_basis:") and "'1e999'" in out[0]
    assert out[1].startswith("FAIL b_input:") and "coefficient 0" in out[1]
    assert out[2].startswith("FAIL c_input_json:") and "coefficient 0" in out[2]
    assert out[3:] == ["0/3 passed"]


def test_corpus_option_kinds_cover_classify_options():
    fields = {f.name for f in dataclasses.fields(ClassifyOptions)}
    assert set(_OPTION_KINDS) == fields


def test_zero_denominator_input_exits_with_error(tmp_path, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(ZERO_DENOMINATOR_BASIS))
    for argv in (
        ["classify", json.dumps(ZERO_DENOMINATOR_COEFFS), "--pattern", "1"],
        ["plusdim", f"@{basis}"],
    ):
        assert main(argv) == EXIT_ERROR
        assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,stdin,key",
    [
        (["plusdim", "-"], '{"basis": [[1,0,0]]}', "'d'"),
        (["plusdim", "-"], '{"d": 1, "basis": 5}', "'basis'"),
        (["classify", '{"coeffs": 5}', "--pattern", "1"], "", "'coeffs'"),
        (["classify", "[[1,0],[1,null]]", "--pattern", "1"], "", "[1, None]"),
        # numbers without a finite float value
        (["plusdim", "-"], '{"d": 1, "basis": [[1e999, 0, 0]]}', "got inf"),
        (["plusdim", "-"], '{"d": 1, "basis": [["1e999", "0", "0"]]}', "'1e999'"),
        (["plusdim", "-"], '{"d": 1, "basis": [[NaN, 0, 0]]}', "got nan"),
        (["classify", "10^400 + z", "--pattern", "1"], "", "coefficient 0"),
        (["classify", "1e400 + z", "--pattern", "1"], "", "coefficient 0"),
        (["classify", '{"coeffs_f": [[1, 0], [NaN, 0]]}', "--pattern", "1"], "", "coefficient 1"),
    ],
    ids=["plusdim-no-d", "plusdim-basis-not-a-list", "coeffs-not-a-list", "null-part",
         "plusdim-infinity", "plusdim-overflowing-string", "plusdim-nan",
         "classify-overflowing-integer", "classify-infinite-decimal", "classify-nan"],
)
def test_malformed_json_input_exits_with_error(argv, stdin, key, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_classify_text_with_cone_dimension_and_witness(mode, capsys):
    code = main(["classify", "(1 - z^2)^2", "--pattern", "4:1,3", "--mode", mode])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "cone trace dimension: 3" in out
    assert "exposed: no (via plus_dimension)" in out
    assert "multiplier bound inf" in out
    if mode == "exact":
        assert "witness [non_exposed]: q = (-2)z^2" in out
    else:
        assert "witness [non_exposed]: q = " in out
        # float matrix rows print signed entries
        assert "    [+0  -1  +0" in out
