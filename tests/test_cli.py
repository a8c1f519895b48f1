"""CLI behaviour: exit codes, formats, corpus runner, option handling."""

import argparse
import dataclasses
import io
import json
import re
import time
import warnings
from pathlib import Path

import pytest

from lacuna.classifier import ClassifyOptions
from lacuna.cli_reports import (
    _OPTION_KINDS,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNDECIDED,
    _parse_pattern_arg,
    build_parser,
    main,
)

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
README = Path(__file__).resolve().parents[1] / "README.md"
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
    # the ranks are exact: a stalled cone solver is the one undecided state
    import lacuna.classifier as mod
    from lacuna import SolverStalled

    def raising(*args, **kwargs):
        raise SolverStalled("no progress")

    monkeypatch.setattr(mod, "plus_dimension", raising)
    code = main(["classify", "(1 - z^2)^2", "--pattern", "4:1,3", "--no-witnesses"])
    out = capsys.readouterr().out
    assert code == EXIT_UNDECIDED
    assert "exposed: UNDECIDED" in out
    assert "no progress" in out


def test_classify_stalled_cone_solver_exit(capsys):
    # the seed vanishes at t = +-pi/3, x = +-1/sqrt 3 in Cayley coordinates,
    # and the last alternative's rows there are opposite in sign on every
    # direction but the seed's: the face may force a zero at an irrational
    # point, which the rational certificate cannot show
    text = "(1-z+z^2)^2*((2-2i) + (3-7i/3)z + (1-i)z^2 + (-3+i)z^3)"
    code = main(["classify", text, "--pattern", "8:3"])
    out = capsys.readouterr().out
    assert code == EXIT_UNDECIDED
    assert "extreme: yes" in out
    assert "exposed: UNDECIDED" in out
    assert "undecided: cone solver stalled" in out
    assert "witness" not in out


def test_classify_decides_a_cone_the_slice_solver_stalled_on(capsys):
    # no harmonic lattice compresses this tilde kernel, and the slice solver
    # neither converged nor plateaued on it; facial reduction over the seed's
    # circle zeros decides it
    code = main(
        ["classify", "(1-z^2)^2*(3-z-z^2-2z^3)", "--pattern", "8:3"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "extreme: yes" in out
    assert "exposed: no (via plus_dimension)" in out
    assert "cone trace dimension: 2" in out
    assert "witness [non_exposed]" in out


def test_classify_decides_a_cone_on_the_harmonic_lattice(capsys):
    # every tilde kernel vector lives on harmonics 0, 3, 6: the cone search
    # runs at degree 2, where the kernel is the whole space
    code = main(
        ["classify", "(1 - z^3)^4", "--pattern", "12:1,2,4,5,7,8,10,11"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "extreme: yes" in out
    assert "exposed: no (via plus_dimension)" in out
    assert "cone trace dimension: 5" in out


def test_pattern_arg_parsing():
    pat = _parse_pattern_arg("6:3")
    assert (pat.N, pat.forbidden) == (6, (3,))
    pat = _parse_pattern_arg("4")
    assert (pat.N, pat.forbidden) == (4, ())
    pat = _parse_pattern_arg("9:2,5,7")
    assert pat.forbidden == (2, 5, 7)
    for text in ("x", "4:a", "4:1;3", ""):
        expected = f"bad pattern {text!r}: expected 'N' or 'N:k1,k2,...'"
        with pytest.raises(ValueError, match=re.escape(expected)):
            _parse_pattern_arg(text)


@pytest.mark.parametrize(
    "argv,named",
    [
        (["classify", "z", "--pattern", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["classify", "z", "--pattern", "1", "--format", "xml"], "invalid choice: 'xml'"),
        (["classify"], "required: input"),
        ([], "required: command"),
        # the retired circle band and support cutoff flags
        (["classify", "(1 - z^2)^2", "--pattern", "4:1,3", "--eps-circle", "nan"],
         "unrecognized arguments: --eps-circle nan"),
        (["classify", "1.0 + 0.5z + z^2", "--pattern", "2:1", "--tol", "1e-6"],
         "unrecognized arguments: --tol 1e-6"),
        # the retired float mode and config file
        (["classify", "1 + z/2", "--pattern", "1", "--mode", "exact"], "unrecognized arguments: --mode exact"),
        (["classify", "1 + z/2", "--pattern", "1", "--config", "lacuna.cfg"],
         "unrecognized arguments: --config lacuna.cfg"),
    ],
    ids=["unknown-flag", "bad-choice", "missing-input", "missing-command",
         "eps-circle", "tol", "mode", "config"],
)
def test_usage_errors_exit_with_error(argv, named, capsys):
    # argparse's own exit code 2 would read as "undecided"
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


def test_norm_subcommand(capsys):
    code = main(["norm", "1 + z"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["norm"] - 4 / 3.141592653589793) < 1e-10
    assert doc["error_bound"] < 1e-9


@pytest.mark.parametrize(
    "expr, pattern",
    [
        ("(1 - z)^2 (2 + z)", "3"),  # a double circle zero: gcd(p, p*) = (1 - z)^2
        ("(1 + z)(z - 1/2)(2 - z)", "3"),  # a circle zero and a shared disk pair
        ("z - (1 - 1/10^9)", "1"),  # coprime to p*, a zero 1e-9 inside the circle
    ],
)
def test_norm_subcommand_reports_the_classifier_norm(expr, pattern, capsys):
    # both find the panel breaks from the same exact zero structure
    assert main(["norm", expr]) == EXIT_OK
    norm = json.loads(capsys.readouterr().out)
    assert main(["classify", expr, "--pattern", pattern, "--format", "json"]) in (EXIT_OK, EXIT_UNDECIDED)
    doc = json.loads(capsys.readouterr().out)
    assert (norm["norm"], norm["error_bound"]) == (doc["norm"]["value"], doc["norm"]["error_bound"])


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


def test_plusdim_finds_the_plus_vector_of_an_unseeded_line(capsys):
    # tau = 2 + 2cos t = |1 + z|^2 touches zero at t = pi
    code = main(["plusdim", json.dumps({"d": 2, "basis": [["1", "1", "0", "0", "0"]]})])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_plus"] == 1
    assert doc["vectors"] == [{"d": 2, "alpha": ["1", "1", "0"], "beta": ["0", "0"]}]


def test_plusdim_zero_dimension(tmp_path, capsys):
    basis = tmp_path / "v1.json"
    basis.write_text(json.dumps({"d": 1, "basis": [["0", "1", "0"]]}))
    code = main(["plusdim", f"@{basis}"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["dim_plus"] == 0


def test_plusdim_empty_basis_spans_zero(capsys):
    code = main(["plusdim", '{"d": 1, "basis": []}'])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_plus"] == 0 and doc["vectors"] == []


@pytest.mark.parametrize(
    "basis,message",
    [
        ([], "seed does not lie in the given subspace"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "seed is not a plus vector"),
    ],
    ids=["empty-basis", "whole-space"],
)
def test_plusdim_checks_the_seed_when_the_basis_spans_zero_or_everything(basis, message, capsys):
    # the seed 2 cos t is neither in {0} nor a plus vector
    code = main(["plusdim", json.dumps({"d": 1, "basis": basis, "seed": [0, 1, 0]})])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_corpus_runs_an_empty_basis_job_next_to_a_good_one(tmp_path, capsys):
    (tmp_path / "a_empty.json").write_text(json.dumps({"d": 1, "basis": [], "expect": {"dim_plus": 0}}))
    good = {"input": "1 + z/2", "pattern": {"N": 1}, "expect": {"extreme": True, "exposed": True}}
    (tmp_path / "b_good.json").write_text(json.dumps(good))
    code = main(["corpus", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["PASS a_empty: ok", "PASS b_good: ok", "2/2 passed"]


def test_plusdim_reads_and_prints_exact_values(capsys):
    # the JSON numbers 0.5 are read at their exact value, so the seed 1 + cos t
    # is plus and comes back first, as fraction strings
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    code = main(["plusdim", json.dumps({"d": 1, "basis": basis, "seed": [0.5, 0.5, 0]})])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_plus"] == 3 and len(doc["vectors"]) == 3
    assert doc["vectors"][0] == {"d": 1, "alpha": ["1/2", "1/2"], "beta": ["0"]}
    assert all(isinstance(x, str) for v in doc["vectors"] for x in v["alpha"] + v["beta"])


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


@pytest.mark.parametrize(
    "rows,ok",
    [
        ([["4", "5", "0"], ["0", "0", "3"]], True),
        ([["4/3", "5/3", 0], [0, 0, 1]], True),  # a rational scale, strings or numbers
        ([["-8", "-10", "0"], ["0", "0", "-6"]], True),
        ([["4", "5", "0"], ["0", "0", "3.000000000001"]], False),  # within 1e-9, not a multiple
        ([["4", "5", "0"], ["0", "0", "-3"]], False),
        ([["0", "0", "0"], ["0", "0", "0"]], False),  # only a zero matrix matches a zero one
        ([["4", "5", "0"]], False),
        ([["4", "5"], ["0", "0", "3"]], False),
    ],
)
def test_corpus_compares_matrices_exactly_up_to_a_rational_scale(rows, ok, tmp_path, capsys):
    job = {"input": "(z - 1/2)(8 - z^3)", "pattern": {"N": 4, "forbidden": [2]}, "expect": {"matrix": {"rows": rows}}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert main(["corpus", str(tmp_path)]) == (EXIT_OK if ok else EXIT_ERROR)
    assert ("mismatch beyond scalar multiple" in capsys.readouterr().out) != ok


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
    # option values of the wrong JSON type (a truthy string, a number for a
    # boolean), and the retired eps_circle and mode options
    for name, option in (("g_string_bool", {"generate_witnesses": "false"}),
                         ("h_number_bool", {"infer_pattern": 1}),
                         ("i_retired_option", {"eps_circle": 1e-8}),
                         ("j_retired_mode", {"mode": "auto"})):
        job = {"input": "(1 - z)^2", "pattern": {"N": 2}, "options": option,
               "expect": {"witness_kinds": []}}
        (tmp_path / f"{name}.json").write_text(json.dumps(job))
    (tmp_path / "k_good_again.json").write_text(json.dumps(good))
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
    assert out[7].startswith("FAIL h_number_bool:")
    assert "'infer_pattern' takes a boolean" in out[7]
    assert out[8].startswith("FAIL i_retired_option:")
    assert "unknown option 'eps_circle'" in out[8]
    assert out[9].startswith("FAIL j_retired_mode:")
    assert "unknown option 'mode'" in out[9]
    assert out[10] == "PASS k_good_again: ok"
    assert out[11] == "2/11 passed"


def test_corpus_infer_pattern_option_infers_a_missing_pattern(tmp_path, capsys):
    # with a pattern the option changes nothing: the job's pattern is used
    jobs = {
        "a_inferred": {"input": "(z - 1/2)(2 - z)(1 + z^4)", "options": {"infer_pattern": True},
                       "expect": {"extreme": False, "exposed": False}},
        "b_given": {"input": "(z - 1/2)(2 - z)(1 + z^4)", "pattern": {"N": 7},
                    "options": {"infer_pattern": True}, "expect": {"matrix": {"rows": []}}},
        "c_not_inferred": {"input": "1 + z/2", "expect": {}},
    }
    for name, job in jobs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(job))
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_ERROR
    assert out[:2] == ["PASS a_inferred: ok", "PASS b_given: ok"]
    assert out[2].startswith("FAIL c_not_inferred:") and 'a pattern needs an integer "N"' in out[2]
    assert out[3:] == ["2/3 passed"]


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


@pytest.mark.parametrize("literal", ["1e999999999", "0e999999999", "1e-999999999"])
def test_huge_decimal_exponent_is_refused_before_it_is_expanded(literal, tmp_path, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"d": 0, "basis": [[literal]]}))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    job = {"input": "1 + z/2", "pattern": {"N": 1}, "expect": {"matrix": {"rows": [[literal]]}}}
    (corpus / "job.json").write_text(json.dumps(job))
    for argv in (
        ["classify", f"1 + {literal}z", "--pattern", "1"],
        ["plusdim", f"@{basis}"],
        ["corpus", str(corpus)],
    ):
        start = time.perf_counter()
        assert main(argv) == EXIT_ERROR
        assert time.perf_counter() - start < 0.1
        captured = capsys.readouterr()
        assert "decimal exponent" in captured.err + captured.out


def test_corpus_option_kinds_cover_classify_options():
    # mode stays a field only for the benchmark harness; a job cannot set it
    fields = {f.name for f in dataclasses.fields(ClassifyOptions)}
    assert set(_OPTION_KINDS) == fields - {"mode"}


def _readme_section(start: str, end: str) -> str:
    text = README.read_text()
    head = text.index(start) + len(start)
    return text[head:text.index(end, head)]


def test_readme_lists_the_option_surface():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in sub.choices["classify"]._actions for s in a.option_strings}
    table = _readme_section("Flags for `classify`:", "Exit codes:")
    assert set(re.findall(r"`(--[a-z-]+)", table)) == flags - {"-h", "--help"}
    options = _readme_section("take JSON types:", "(")
    assert set(re.findall(r"`([a-z_]+)`", options)) == set(_OPTION_KINDS)


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
        (["plusdim", "-"], '{"d": -1, "basis": []}', "'d'"),
        (["classify", '{"coeffs": 5}', "--pattern", "1"], "", "'coeffs'"),
        (["classify", "[[1,0],[1,null]]", "--pattern", "1"], "", "[1, None]"),
        # numbers without a finite float value
        (["plusdim", "-"], '{"d": 1, "basis": [[1e999, 0, 0]]}', "got inf"),
        (["plusdim", "-"], '{"d": 1, "basis": [["1e999", "0", "0"]]}', "'1e999'"),
        (["plusdim", "-"], '{"d": 1, "basis": [[NaN, 0, 0]]}', "got nan"),
        (["classify", "10^400 + z", "--pattern", "1"], "", "coefficient 0"),
        (["classify", "1e400 + z", "--pattern", "1"], "", "coefficient 0"),
        (["classify", '{"coeffs_f": [[1, 0], [NaN, 0]]}', "--pattern", "1"], "", "coefficient 1"),
        # finite coefficients whose zero, -10^400 or about -10^320, has no float
        # value; each is shared with p* (with its reflection), so the zero
        # analysis needs it
        (["classify", "(1 + z/10^400)(z + 1/10^400)", "--pattern", "2"], "", "beyond the float range"),
        (["classify", '{"coeffs_f": [[1e-320,0],[1,0],[1e-320,0]]}', "--pattern", "2"], "",
         "beyond the float range"),
        # a root polished to -10^100, shared with p*, whose backward error overflows
        (["classify", "(z + 10^100)(1 + 10^100 z)(z^3 - 2)", "--pattern", "5"], "",
         "backward error nan"),
        # the companion eigenvalue solve on p* does not converge
        (["classify", "(z + 10^20)(1 + 10^20 z)(z^3 - 2)", "--pattern", "5"], "",
         "monic factor of multiplicity 1 are not found"),
    ],
    ids=["plusdim-no-d", "plusdim-basis-not-a-list", "plusdim-negative-d", "coeffs-not-a-list", "null-part",
         "plusdim-infinity", "plusdim-overflowing-string", "plusdim-nan",
         "classify-overflowing-integer", "classify-infinite-decimal", "classify-nan",
         "classify-exact-zero-beyond-float-range", "classify-float-zero-beyond-float-range",
         "classify-overflowed-residual", "classify-eigenvalues-do-not-converge"],
)
def test_malformed_json_input_exits_with_error(argv, stdin, key, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err


# the disk zeros (3 +- sqrt 5)/2 of 1 - 3z + z^2 reflect each other, so the
# canonical factor of the second input has an irrational natural scale; it is
# given as doubles, (1 - 3z + z^2)(1 - z)^2(z^2 + z - 3), read at its exact value
CONE_WITNESS_INPUTS = {
    "exact": ("(1 - z^2)^2", "4:1,3"),
    "float": ('{"coeffs_f": [[-3.0, 0.0], [16.0, 0.0], [-28.0, 0.0], [18.0, 0.0], [0.0, 0.0], [-4.0, 0.0], '
              '[1.0, 0.0]]}', "6:4"),
}


@pytest.mark.parametrize("form", ["exact", "float"])
def test_classify_text_with_cone_dimension_and_witness(form, capsys):
    text, pattern = CONE_WITNESS_INPUTS[form]
    code = main(["classify", text, "--pattern", pattern])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[1].startswith("norm: ")  # no mode line
    assert "cone trace dimension: 3" in out
    assert "exposed: no (via plus_dimension)" in out
    assert "multiplier bound inf" in out
    if form == "exact":
        assert "witness [non_exposed]: q = (-2)z^2" in out
    else:
        assert "witness [non_exposed]: q = " in out
        # G = -2 + 6z - 2z^2 and the cofactor's rows are exact
        assert "shared disk zeros: m=1 (s=4); halved circle zeros: mu=1 (m~=2, s~=2)" in out


def test_salem_polynomial_exits_with_the_factor_named(capsys):
    code = main(["classify", "1 + z - z^3 - z^4 - z^5 - z^6 - z^7 + z^9 + z^10", "--pattern", "10"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "no Gaussian-rational monic product of the circle zeros of p" in err


def test_near_reflected_pair_is_decided_exactly(capsys):
    code = main(["classify", "(z - 1/2)(1 - (1/2 + 1/10^8)z)", "--pattern", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[1].startswith("norm: ") and "shared disk zeros: m=0" in out
    assert "extreme: yes (via rank)\nexposed: yes (via simple_circle_zeros)\n" in out


