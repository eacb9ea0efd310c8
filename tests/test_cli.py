import io
import json
import os
import pathlib
import subprocess
import sys

from finsetrep import acceptance, cli
from finsetrep.acceptance import CriterionResult


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hom_count(capsys):
    code, out, _ = run_cli(capsys, "hom", "--cat", "N", "--from", "2", "--to", "2")
    assert code == 0 and out.strip() == "6"


def test_hom_json(capsys):
    code, out, _ = run_cli(capsys, "hom", "--cat", "F", "--from", "2", "--to", "3",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"category": "F", "from": 2, "to": 3, "count": 9}


def test_hom_list_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "hom", "--cat", "Delta", "--from", "2", "--to", "2", "--list")
    code2, out2, _ = run_cli(capsys, "hom", "--cat", "Delta", "--from", "2", "--to", "2", "--list")
    assert code == code2 == 0 and out1 == out2
    assert out1.splitlines() == ["2->2: 1,1", "2->2: 1,2", "2->2: 2,2"]


def test_compose_and_lift(capsys):
    code, out, _ = run_cli(capsys, "compose", "--cat", "N",
                           "--g", "2->1: 1,1 | orders: 1:(2,1)",
                           "--f", "2->2: 1,2 | orders: 1:(1); 2:(2)")
    assert code == 0 and out.strip() == "2->1: 1,1 | orders: 1:(2,1)"
    code, out, _ = run_cli(capsys, "lift", "--map", "3->1: 1,1,1", "--mode", "canonical")
    assert code == 0 and out.strip() == "3->1: 1,1,1 | orders: 1:(1,2,3)"


def test_lift_modes_accept_and_refuse(capsys):
    # every mode prints the same lift; injection and delta only refuse input
    accepted = {
        "canonical": ("3->2: 1,2,1", "3->2: 1,2,1 | orders: 1:(1,3); 2:(2)"),
        "injection": ("2->3: 3,1", "2->3: 3,1 | orders: 1:(2); 2:(); 3:(1)"),
        "delta": ("3->3: 1,1,2", "3->3: 1,1,2 | orders: 1:(1,2); 2:(3); 3:()"),
    }
    for mode, (text, lifted) in accepted.items():
        code, out, err = run_cli(capsys, "lift", "--map", text, "--mode", mode)
        assert (code, out, err) == (0, lifted + "\n", "")
    refused = (
        ("injection", "2->1: 1,1", "error: injection lift of a non-injective map (1, 1)\n"),
        ("delta", "2->2: 2,1", "error: delta lift of a non-monotone map (2, 1)\n"),
    )
    for mode, text, message in refused:
        code, out, err = run_cli(capsys, "lift", "--map", text, "--mode", mode)
        assert (code, out, err) == (2, "", message)


def test_malformed_morphism_exits_2(capsys):
    code, _, err = run_cli(capsys, "lift", "--map", "3->1 1,1,1")
    assert code == 2 and "error" in err


def test_unknown_subcommand_exits_2(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_simple_emits_module_file(capsys):
    code, out, _ = run_cli(capsys, "simple", "Ck", "--k", "2", "--max", "4")
    assert code == 0
    assert out.startswith("catmod/1\ncategory N\nmax_level 4\ndims 0 0 1 3 6\n")


def test_simple_requires_k(capsys):
    code, _, err = run_cli(capsys, "simple", "Ck", "--max", "4")
    assert code == 2


def test_pipe_simple_into_charpoly_fit(capsys, monkeypatch):
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "2", "--max", "4")
    monkeypatch.setattr("sys.stdin", io.StringIO(module_text))
    code, out, _ = run_cli(capsys, "fit", "charpoly", "--d", "2",
                           "--fit", "1..3", "--test", "4")
    assert code == 0 and out.strip() == "C(X1,2) + X2"


def test_failing_charpoly_fit_names_its_witness(capsys, monkeypatch):
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "2", "--max", "5")
    for fmt, expected in (("text", "inconsistent at (2, (1, 1))\n"),
                          ("json", '{"ok": false, "witness": "(2, (1, 1))"}\n')):
        monkeypatch.setattr("sys.stdin", io.StringIO(module_text))
        code, out, err = run_cli(capsys, "fit", "charpoly", "-", "--d", "1",
                                 "--fit", "1..4", "--test", "5", "--format", fmt)
        assert (code, out, err) == (1, expected, "")


def test_charpoly_fit_of_a_large_degree_builds_only_the_monomials_it_can_see(capsys, monkeypatch):
    # monomials of degree 4..60 vanish on every class of the fit levels 1..3;
    # the monomials up to degree 60, one per partition of each degree, would
    # number 6,639,349
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "2", "--max", "5")
    monkeypatch.setattr("sys.stdin", io.StringIO(module_text))
    code, out, err = run_cli(capsys, "fit", "charpoly", "-", "--d", "60",
                             "--fit", "1..3", "--test", "4..5")
    assert (code, out, err) == (0, "C(X1,2) + X2\n", "")


def test_fit_dimpoly_values(capsys):
    code, out, _ = run_cli(capsys, "fit", "dimpoly", "--d", "2",
                           "--values", "1 3 6 10 15 21")
    assert code == 0 and "C(n-1,2)" in out
    code, out, _ = run_cli(capsys, "fit", "dimpoly", "--d", "1",
                           "--values", "1 2 4 8 16")
    assert code == 1 and "inconsistent" in out


def test_fit_rejects_a_negative_degree(capsys, monkeypatch):
    message = "error: degree must be nonnegative, got -1\n"
    code, out, err = run_cli(capsys, "fit", "dimpoly", "--d", "-1", "--values", "1 2 3")
    assert (code, out, err) == (2, "", message)
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "2", "--max", "4")
    monkeypatch.setattr("sys.stdin", io.StringIO(module_text))
    code, out, err = run_cli(capsys, "fit", "charpoly", "--d", "-1",
                             "--fit", "1..3", "--test", "4")
    assert (code, out, err) == (2, "", message)


def test_doldkan_pipeline(tmp_path, capsys):
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "1", "--max", "5")
    mod_file = tmp_path / "c1.catmod"
    mod_file.write_text(module_text)
    code, cochain_text, _ = run_cli(capsys, "doldkan", "conormalize", str(mod_file))
    assert code == 0
    assert cochain_text.startswith("cochain/1\ntop 4\ndims 1 1 0 0 0\n")
    cx_file = tmp_path / "c1.cochain"
    cx_file.write_text(cochain_text)
    code, realized, _ = run_cli(capsys, "doldkan", "realize", str(cx_file), "--max", "5")
    assert code == 0 and realized.startswith("catmod/1\ncategory Delta\n")
    assert "dims 0 1 2 3 4 5" in realized
    code, out, _ = run_cli(capsys, "doldkan", "dimpoly", str(mod_file))
    assert code == 0 and out.strip() == "1 + 1*C(n-1,1)"


def test_char_table(tmp_path, capsys):
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "1", "--max", "4")
    mod_file = tmp_path / "c1.catmod"
    mod_file.write_text(module_text)
    code, out, _ = run_cli(capsys, "char", str(mod_file), "--n", "3")
    assert code == 0
    assert out.splitlines() == ["3: 0", "2,1: 1", "1,1,1: 3"]


def test_invariants_and_replicate(tmp_path, capsys):
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "2", "--max", "6")
    mod_file = tmp_path / "c2.catmod"
    mod_file.write_text(module_text)
    code, out, _ = run_cli(capsys, "invariants", str(mod_file), "--range", "1..5")
    assert code == 0 and "0 1 1 1 1" in out and "nondecreasing" in out
    code, out, _ = run_cli(capsys, "replicate", str(mod_file), "--n", "2", "--m", "2")
    assert code == 0 and "isomorphism" in out
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "3", "--max", "6")
    mod_file.write_text(module_text)
    code, out, _ = run_cli(capsys, "replicate", str(mod_file), "--n", "2", "--m", "2")
    assert code == 1 and "NOT" in out


def test_arnold_commands(capsys):
    code, out, _ = run_cli(capsys, "arnold", "dims", "--i", "2", "--max", "5")
    assert code == 0 and out.strip() == "0 0 2 11 35"
    code, out, _ = run_cli(capsys, "arnold", "act", "--i", "1", "--map", "2->3: 2,3")
    assert code == 0 and out.strip() == "w(1,2) -> 1 * w(2,3)"
    code, out, _ = run_cli(capsys, "arnold", "act", "--i", "1", "--map", "2->1: 1,1")
    assert code == 0 and out.strip() == "w(1,2) -> 0"
    code, out, _ = run_cli(capsys, "arnold", "char", "--i", "1", "--n", "3")
    assert code == 0 and out.splitlines() == ["3: 0", "2,1: 1", "1,1,1: 3"]


def test_arnold_missing_flags_exit_2(capsys):
    assert cli.run(["arnold", "act", "--i", "1"]) == 2
    assert cli.run(["arnold", "char", "--i", "1"]) == 2
    capsys.readouterr()


def test_invariants_rejects_a_transposition_that_is_not_an_involution(tmp_path, capsys):
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "1", "--max", "3")
    assert "transp 2 1\n0 1\n1 0\n" in module_text
    mod_file = tmp_path / "bad.catmod"
    mod_file.write_text(module_text.replace("transp 2 1\n0 1\n", "transp 2 1\n1 1\n"))
    code, out, err = run_cli(capsys, "invariants", str(mod_file), "--range", "1..3")
    assert code == 1 and out == ""
    assert err.startswith("check failed:") and "level 2" in err


def test_module_files_are_certified_by_their_relations_on_read(tmp_path, capsys):
    _, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "1", "--max", "3")
    assert "coface 2 1\n0 0\n" in module_text
    mod_file = tmp_path / "bad.catmod"
    mod_file.write_text(module_text.replace("coface 2 1\n0 0\n", "coface 2 1\n5 0\n"))
    for argv in (("char", str(mod_file), "--n", "3"),
                 ("invariants", str(mod_file), "--range", "1..3"),
                 ("doldkan", "conormalize", str(mod_file))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err == "check failed: relation coface 2 1 o coface 1 2 fails\n", argv


def test_invariants_json_payload(tmp_path, capsys):
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "2", "--max", "5")
    mod_file = tmp_path / "c2.catmod"
    mod_file.write_text(module_text)
    code, out, _ = run_cli(capsys, "invariants", str(mod_file), "--range", "1..4",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"levels": [1, 2, 3, 4], "dims": [0, 1, 1, 1],
                               "nondecreasing": True}


def test_arnold_module_emission_round_trips(capsys):
    code, out, _ = run_cli(capsys, "arnold", "module", "--i", "1", "--max", "4")
    assert code == 0
    from finsetrep.repmod import read_module, write_module
    assert write_module(read_module(out)) == out


def test_verify_formats_results(monkeypatch, capsys):
    canned = (
        CriterionResult(1, "alpha", True, "fine"),
        CriterionResult(2, "beta", True, "also fine"),
    )
    monkeypatch.setattr(acceptance, "run_all", lambda seed: canned)
    code, out, _ = run_cli(capsys, "verify", "--seed", "3")
    assert code == 0
    assert "1 PASS alpha: fine" in out
    assert "overall: PASS (2/2)" in out
    code, out, _ = run_cli(capsys, "verify", "--seed", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["passed"] is True and payload["seed"] == 3


def test_verify_reports_failure_exit_code(monkeypatch, capsys):
    canned = (CriterionResult(1, "alpha", False, "broken"),)
    monkeypatch.setattr(acceptance, "run_all", lambda seed: canned)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1 and "FAIL" in out


def test_replicate_on_a_corrupted_module_is_a_check_failure(tmp_path, capsys):
    code, module_text, _ = run_cli(capsys, "simple", "Ck", "--k", "1", "--max", "4")
    assert "transp 2 1\n0 1\n1 0\n" in module_text
    mod_file = tmp_path / "bad.catmod"
    mod_file.write_text(module_text.replace("transp 2 1\n0 1\n", "transp 2 1\n1 1\n"))
    code, out, err = run_cli(capsys, "replicate", str(mod_file), "--n", "2", "--m", "2")
    assert code == 1 and out == ""
    assert err.startswith("check failed:") and "Traceback" not in err


def _malformed(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_malformed_module_headers_exit_2_with_a_location(tmp_path, capsys):
    _, text, _ = run_cli(capsys, "simple", "Ck", "--k", "1", "--max", "3")
    cases = (
        ("category N\n", "category Q\n", "unknown category 'Q'"),
        ("max_level 3\n", "max_level three\n", "max_level must be an integer"),
        ("max_level 3\n", "max_level 2.5\n", "max_level must be an integer"),
        ("max_level 3\n", "max_level 0\ndims 0\n", "max_level must be at least 1"),
        ("dims 0 1 2 3\n", "dims 0 1 x 3\n", "dims entry must be an integer"),
        ("dims 0 1 2 3\n", "dims 0 1 -2 3\n", "dims entry must be at least 0"),
        ("coface 1 1\n", "coface one 1\n", "expected matrix block"),
        ("coface 1 1\n", "coface 1 1.0\n", "expected matrix block"),
    )
    mod_file = tmp_path / "bad.catmod"
    for old, new, message in cases:
        mod_file.write_text(_malformed(text, old, new))
        code, out, err = run_cli(capsys, "char", str(mod_file), "--n", "2")
        assert code == 2 and out == "", new
        assert err.startswith("error: ") and message in err and "(at line " in err, err
        assert "invalid literal" not in err


def test_malformed_module_blocks_exit_2_with_the_recorded_error(tmp_path, capsys):
    _, text, _ = run_cli(capsys, "simple", "Ck", "--k", "1", "--max", "3")
    block = "error: block ('coface', 2, 1): matrix row 1"
    cases = (
        ("coface 2 1\n0 0\n", "coface 2 1\n0 x\n", block + ", entry 2: bad rational 'x' (at line 13)"),
        ("coface 2 1\n0 0\n", "coface 2 1\n0 1/0\n", block + ", entry 2: bad rational '1/0' (at line 13)"),
        ("coface 2 1\n0 0\n", "coface 2 1\n0 1.5.2\n",
         block + ", entry 2: bad rational '1.5.2' (at line 13)"),
        ("coface 2 1\n0 0\n", "coface 2 1\n0\n", block + ": expected 2 entries, got 1 (at line 13)"),
        ("coface 2 1\n0 0\n", "coface 2 1\n0 0 0\n", block + ": expected 2 entries, got 3 (at line 13)"),
        ("transp 3 2\n1 0 0\n0 0 1\n0 1 0\n", "transp 3 2\n1 0 0\n0 0 1\n",
         "error: unexpected end of module file (expected matrix row) (at line 43)"),
        (text[text.index("coface 2 1\n"):], "",
         "error: unexpected end of module file (expected matrix header) (at line 13)"),
    )
    mod_file = tmp_path / "bad.catmod"
    for old, new, message in cases:
        mod_file.write_text(_malformed(text, old, new))
        assert run_cli(capsys, "char", str(mod_file), "--n", "2") == (2, "", message + "\n"), new


def test_malformed_cochain_headers_exit_2_with_a_location(tmp_path, capsys):
    text = "cochain/1\ntop 1\ndims 1 1\nd 0\n1\n"
    cx_file = tmp_path / "bad.cochain"
    cases = (
        ("top 1\n", "top one\n", "top must be an integer"),
        ("top 1\n", "top -1\n", "top must be at least 0"),
        ("dims 1 1\n", "dims 1 y\n", "dims entry must be an integer"),
    )
    for old, new, message in cases:
        cx_file.write_text(_malformed(text, old, new))
        code, out, err = run_cli(capsys, "doldkan", "realize", str(cx_file), "--max", "3")
        assert code == 2 and out == "", new
        assert err.startswith("error: ") and message in err and "(at line " in err, err
        assert "invalid literal" not in err
    cx_file.write_text(text)
    code, out, _ = run_cli(capsys, "doldkan", "realize", str(cx_file), "--max", "3")
    assert code == 0 and out.startswith("catmod/1\ncategory Delta\n")


def test_cochain_with_nonzero_square_exits_2_at_the_differential(tmp_path, capsys):
    cx_file = tmp_path / "bad.cochain"
    # d1 d0 = 1 * 1 != 0; "d 1" is line 6
    cx_file.write_text("cochain/1\ntop 2\ndims 1 1 1\nd 0\n1\nd 1\n1\n")
    code, out, err = run_cli(capsys, "doldkan", "realize", str(cx_file), "--max", "3")
    assert code == 2 and out == ""
    assert err == "error: d o d != 0 at degree 0 (at line 6)\n", err
    assert "Traceback" not in err


def _finsetrep(*argv, stdout):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return subprocess.Popen([sys.executable, "-m", "finsetrep", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)))


def test_a_closed_pipe_exits_1_without_a_traceback():
    # 940,800 bytes of morphisms: far more than a pipe holds, so the writer
    # is still writing when the reader closes after one line
    proc = _finsetrep("hom", "--cat", "N", "--from", "5", "--to", "5", "--list", stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"5->5: 1,1,1,1,1 | orders: 1:(1,2,3,4,5); 2:(); 3:(); 4:(); 5:()\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_output_to_a_pipe_with_no_reader_exits_1_without_a_traceback():
    # the one line stays buffered until the final flush, which finds no reader
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _finsetrep("hom", "--cat", "N", "--from", "2", "--to", "2", stdout=write_end)
    os.close(write_end)
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
