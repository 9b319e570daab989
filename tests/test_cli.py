import io
import json
from fractions import Fraction

import pytest

from spincouple import (
    coupling_from_pattern_map,
    scenario_from_correlations,
)
from spincouple.cli import (
    CliError,
    main,
    parse_scenario_document,
    scenario_document,
)

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


@pytest.fixture()
def fair_doc(tmp_path, fair_scenario):
    path = tmp_path / "fair.json"
    path.write_text(json.dumps(scenario_document(fair_scenario)))
    return str(path)


@pytest.fixture()
def pr_doc(tmp_path, pr_box_scenario):
    path = tmp_path / "pr.json"
    path.write_text(json.dumps(scenario_document(pr_box_scenario)))
    return str(path)


# ------------------------------------------------------------------ documents


def test_scenario_document_round_trip(mixed_scenario):
    doc = scenario_document(mixed_scenario, {"note": "kept"})
    back, meta = parse_scenario_document(doc)
    assert back == mixed_scenario
    assert meta == {"note": "kept"}
    assert doc["pairs"]["11"]["pp"].count("/") <= 1  # canonical rational strings


def test_scenario_document_shape_errors():
    with pytest.raises(CliError):
        parse_scenario_document([])
    with pytest.raises(CliError):
        parse_scenario_document({"pairs": {"11": {}}})
    with pytest.raises(CliError):
        parse_scenario_document({"pairs": {"33": {}}})
    good = scenario_document(scenario_from_correlations((F(0),) * 4))
    del good["pairs"]["22"]["mm"]
    with pytest.raises(CliError):
        parse_scenario_document(good)
    good = scenario_document(scenario_from_correlations((F(0),) * 4))
    good["pairs"]["22"]["mm"] = 0.25  # floats are refused in documents
    with pytest.raises(CliError):
        parse_scenario_document(good)


# ---------------------------------------------------------------------- check


def test_check_fair_scenario_passes(capsys, fair_doc):
    code, doc, err = run(capsys, "check", fair_doc)
    assert code == 0
    assert doc["all_satisfied"] is True
    assert doc["no_signaling"]["holds"] is True
    assert set(doc["families"]) == {"bell", "quantum", "tsirelson"}
    assert all(f["satisfied"] for f in doc["families"].values())
    assert "bell=ok" in err


def test_check_pr_box_fails_everything(capsys, pr_doc):
    code, doc, err = run(capsys, "check", pr_doc)
    assert code == 1
    assert doc["all_satisfied"] is False
    assert not any(f["satisfied"] for f in doc["families"].values())
    assert doc["correlations"] == {"e11": "1", "e12": "1", "e21": "1", "e22": "-1"}
    assert "violated" in err


def test_check_correlations_flag_with_rationalization(capsys):
    code, doc, _ = run(capsys, "check", "--correlations", "0.3,-0.2,1/4,0")
    assert code == 0
    assert doc["correlations"] == {"e11": "3/10", "e12": "-1/5", "e21": "1/4", "e22": "0"}
    meta = doc["scenario"]["metadata"]
    assert meta["max_denominator"] == 10**6
    assert meta["rationalized_from"] == {"0": 0.3, "1": -0.2}


def test_check_family_restriction(capsys):
    # a quantum-only vector passes when bell is not asked about
    vec = "7/10,7/10,7/10,-7/10"
    code, doc, _ = run(capsys, "check", "--correlations", vec, "--family", "quantum",
                       "--family", "tsirelson")
    assert code == 0
    assert set(doc["families"]) == {"quantum", "tsirelson"}
    code, doc, _ = run(capsys, "check", "--correlations", vec)
    assert code == 1
    assert not doc["families"]["bell"]["satisfied"]


def test_check_rejects_document_plus_correlations(capsys, fair_doc):
    code, doc, err = run(capsys, "check", fair_doc, "--correlations", "0,0,0,0")
    assert code == 2
    assert doc is None
    assert "not both" in err


def test_check_reads_stdin(capsys, monkeypatch, fair_scenario):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(scenario_document(fair_scenario))))
    code, doc, _ = run(capsys, "check")
    assert code == 0
    assert doc["all_satisfied"] is True


# --------------------------------------------------------------------- couple


def test_couple_existence_witness_revalidates(capsys, fair_doc, fair_scenario):
    code, doc, _ = run(capsys, "couple", fair_doc)
    assert code == 0
    assert doc["mode"] == "existence"
    assert doc["feasible"] is True
    witness = coupling_from_pattern_map(doc["witness"])
    assert witness.matches_scenario(fair_scenario)


def test_couple_identity_splits_fair_from_pr(capsys, fair_doc, pr_doc):
    code, doc, _ = run(capsys, "couple", fair_doc, "--identity")
    assert code == 0 and doc["feasible"] is True
    code, doc, err = run(capsys, "couple", pr_doc, "--identity")
    assert code == 1
    assert doc["feasible"] is False
    assert doc["witness"] is None
    assert "no" in err.lower()


def test_couple_connection_targets(capsys, fair_doc, fair_scenario):
    code, doc, _ = run(capsys, "couple", fair_doc, "--connections", "0,0,0,0")
    assert code == 0
    assert doc["mode"] == "connections"
    witness = coupling_from_pattern_map(doc["witness"])
    assert witness.matches_scenario(fair_scenario)
    assert witness.connection_expectations() == (F(0),) * 4


def test_couple_range_golden(capsys, fair_doc):
    code, doc, _ = run(capsys, "couple", fair_doc, "--range", "A1")
    assert code == 0
    assert doc["range"] == {"connection": "A1", "lo": "-1", "hi": "1"}


def test_couple_range_stdout_bytes(capsys, fair_doc):
    assert main(["couple", fair_doc, "--range", "A1"]) == 0
    assert capsys.readouterr().out == """\
{
  "command": "couple",
  "mode": "range",
  "range": {
    "connection": "A1",
    "hi": "1",
    "lo": "-1"
  },
  "scenario": {
    "pairs": {
      "11": {
        "mm": "1/4",
        "mp": "1/4",
        "pm": "1/4",
        "pp": "1/4"
      },
      "12": {
        "mm": "1/4",
        "mp": "1/4",
        "pm": "1/4",
        "pp": "1/4"
      },
      "21": {
        "mm": "1/4",
        "mp": "1/4",
        "pm": "1/4",
        "pp": "1/4"
      },
      "22": {
        "mm": "1/4",
        "mp": "1/4",
        "pm": "1/4",
        "pp": "1/4"
      }
    }
  },
  "schema_version": "1"
}
"""


def test_couple_rejects_mode_combinations(capsys, fair_doc):
    code, _, err = run(capsys, "couple", fair_doc, "--identity", "--range", "A1")
    assert code == 2
    assert "at most one" in err
    code, _, err = run(capsys, "couple", fair_doc, "--range", "C9")
    assert code == 2
    assert "--range" in err and "'C9'" in err


def test_couple_refuses_symbolic_targets(capsys, fair_doc):
    code, _, err = run(capsys, "couple", fair_doc, "--connections", "sqrt(2)/2,0,0,0")
    assert code == 2
    assert "rationalize first" in err


# ---------------------------------------------------------------- connections


def test_connections_equivalent_verdicts(capsys):
    code, doc, _ = run(capsys, "connections", "--conn", "1,1,1,1", "--family", "bell",
                       "--role", "equivalent", "--n", "25", "--seed", "23")
    assert code == 0
    assert doc["verdict"] is True
    assert doc["samples_checked"] == 50
    assert doc["counterexample"] is None

    code, doc, _ = run(capsys, "connections", "--conn", "1,1,1,-1", "--family", "bell",
                       "--role", "equivalent", "--n", "25", "--seed", "23")
    assert code == 1
    assert doc["verdict"] is False
    counter = doc["counterexample"]
    scenario, _meta = parse_scenario_document(counter["scenario"])
    assert counter["detail"]
    assert scenario.pairs  # the certificate is a complete scenario document


def test_connections_validation(capsys):
    code, _, err = run(capsys, "connections", "--conn", "1,1,1", "--family", "bell",
                       "--role", "fitting")
    assert code == 2
    assert "four" in err
    code, _, err = run(capsys, "connections", "--conn", "1,1,1,1", "--family", "bell",
                       "--role", "fitting", "--n", "0")
    assert code == 2
    assert "--n must be >= 1, got 0" in err
    code, _, err = run(capsys, "connections", "--conn", "1,1,1,1", "--family", "bell",
                       "--role", "fitting", "--n", "5", "--seed", "-1")
    assert code == 2
    assert "seed" in err


# ------------------------------------------------------------- conditionalize


def test_conditionalize_default_pi(capsys, fair_doc):
    code, doc, _ = run(capsys, "conditionalize", fair_doc)
    assert code == 0
    assert doc["conditionals_verified"] is True
    assert doc["kind"] == "simple"
    assert doc["condition_marginal"] == {"11": "1/4", "12": "1/4", "21": "1/4", "22": "1/4"}
    total = sum(
        Fraction(v) for cells in doc["table"].values() for v in cells.values()
    )
    assert total == 1


def test_conditionalize_even_with_custom_pi(capsys, pr_doc):
    code, doc, _ = run(capsys, "conditionalize", pr_doc, "--kind", "even",
                       "--pi", "1/2,1/4,1/8,1/8")
    assert code == 0
    assert doc["conditionals_verified"] is True
    assert doc["condition_marginal"]["11"] == "1/2"
    for cells in doc["table"].values():
        for key in cells:
            assert len(key) == 4 and set(key) <= {"+", "-"}


def test_conditionalize_zero_kind_pads(capsys, fair_doc):
    code, doc, _ = run(capsys, "conditionalize", fair_doc, "--kind", "zero")
    assert code == 0
    for cells in doc["table"].values():
        for key in cells:
            assert key.count("0") == 2


def test_conditionalize_rejects_zero_probability_condition(capsys, fair_doc):
    code, doc, err = run(capsys, "conditionalize", fair_doc, "--pi", "0,1/2,1/4,1/4")
    assert code == 2
    assert doc is None
    assert "positive" in err
    code, _, err = run(capsys, "conditionalize", fair_doc, "--pi", "x,1/2,1/4,1/4")
    assert code == 2
    assert "--pi" in err and "'x'" in err


# ----------------------------------------------------------------------- demo


def test_demo_fine_is_reproducible(capsys):
    code1, doc1, _ = run(capsys, "demo", "fine", "--n", "25", "--seed", "9")
    code2, doc2, _ = run(capsys, "demo", "fine", "--n", "25", "--seed", "9")
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1["agreements"] == 25
    assert doc1["mismatch_indices"] == []


def test_demo_n_has_its_own_bound(capsys):
    code, doc, _ = run(capsys, "demo", "fine", "--n", "0")
    assert code == 0 and doc["agreements"] == doc["n"] == 0
    code, doc, err = run(capsys, "demo", "uninformative", "--n", "-1")
    assert code == 2 and doc is None
    assert "--n must be >= 0, got -1" in err


def test_demo_tsirelson_tight(capsys):
    code, doc, _ = run(capsys, "demo", "tsirelson-tight")
    assert code == 0
    assert doc["chsh_delta"] <= doc["tolerance"]
    assert doc["arcsin_delta"] <= doc["tolerance"]
    assert doc["bell_satisfied"] is False
    assert doc["chsh_max"] == pytest.approx(doc["chsh_bound"], abs=1e-12)


def test_demo_uninformative_strata(capsys):
    code, doc, _ = run(capsys, "demo", "uninformative", "--n", "8", "--seed", "4")
    assert code == 0
    assert doc["successes"] == doc["constructions"]
    assert set(doc["per_stratum"]) == {
        "bell", "quantum-only", "super-tsirelson", "nosig-violating"
    }
    for entry in doc["per_stratum"].values():
        assert entry["successes"] == entry["total"] > 0


def test_demo_tree_golden(capsys):
    code, doc, _ = run(capsys, "demo", "tree", "--p", "3/10", "--q", "3/10",
                       "--pi-root", "1/2")
    assert code == 0
    assert doc["table"] == {
        "condition=1,outcome=+": "3/20",
        "condition=1,outcome=-": "7/20",
        "condition=2,outcome=+": "3/20",
        "condition=2,outcome=-": "7/20",
    }


def test_demo_rejects_unknown_name():
    with pytest.raises(SystemExit) as exc:
        main(["demo", "everything"])
    assert exc.value.code == 2


# ------------------------------------------------------------------- envelope


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "FAIR"],
        ["couple", "FAIR"],
        ["connections", "--conn", "1,1,1,1", "--family", "bell", "--role", "fitting", "--n", "3"],
        ["conditionalize", "FAIR"],
        ["demo", "fine", "--n", "5"],
        ["demo", "tsirelson-tight"],
        ["demo", "uninformative", "--n", "2"],
        ["demo", "tree"],
    ],
)
def test_every_document_carries_the_envelope(capsys, fair_doc, argv):
    code, doc, _ = run(capsys, *[fair_doc if a == "FAIR" else a for a in argv])
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["command"] == argv[0]


# --------------------------------------------------------------------- errors


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "abc"])
@pytest.mark.parametrize(
    "argv", [["check", "--correlations", "0,0,0,0"], ["demo", "tsirelson-tight"]]
)
def test_tolerance_must_be_finite_and_nonnegative(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tolerance={value}"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


def test_tolerance_accepts_zero(capsys):
    code, doc, _ = run(capsys, "check", "--correlations", "1/2,0,0,0", "--tolerance", "0")
    assert code == 0
    assert doc["all_satisfied"] is True


def test_malformed_json_reports_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc, err = run(capsys, "check", str(bad))
    assert code == 2
    assert doc is None
    assert "malformed JSON" in err


def test_bad_cell_is_reported_by_context_and_cell(capsys, tmp_path):
    good = scenario_document(scenario_from_correlations((F(0),) * 4))
    good["pairs"]["22"]["mm"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(good))
    code, doc, err = run(capsys, "check", str(path))
    assert code == 2 and doc is None
    assert 'context "22": p_mm: booleans are not probabilities' in err


def test_missing_file_reports_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["check", "--frobnicate"])
    assert exc.value.code == 2


# ------------------------------------------------- values with a leading "-"


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["connections", "--family", "bell", "--role", "fitting", "--n", "5", "--seed", "3"],
         "--conn", "-1,1,1,1"),
        (["check"], "--correlations", "-1/2,0,0,0"),
        (["couple", "FAIR"], "--connections", "-1,0,1/2,-.25"),
    ],
)
def test_number_lists_may_start_with_minus(capsys, fair_doc, argv, flag, value):
    argv = [fair_doc if a == "FAIR" else a for a in argv]
    joined = run(capsys, *argv, f"{flag}={value}")
    assert joined[0] in (0, 1)
    assert run(capsys, *argv, flag, value) == joined


def test_negative_condition_probability_reaches_the_domain_check(capsys, fair_doc):
    code, doc, err = run(capsys, "conditionalize", fair_doc, "--pi", "-1/4,1/2,1/2,1/4")
    assert code == 2
    assert doc is None
    assert "strictly positive" in err


def test_other_leading_minus_values_keep_the_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--correlations", "-x,0,0,0"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# ------------------------------------------------------------ one process


def test_repeated_calls_share_no_parser_state(capsys):
    code, doc, _ = run(capsys, "check", "--correlations", "0,0,0,0", "--family", "bell")
    assert code == 0
    assert set(doc["families"]) == {"bell"}
    code, doc, _ = run(capsys, "check", "--correlations", "0,0,0,0")
    assert code == 0
    assert set(doc["families"]) == {"bell", "quantum", "tsirelson"}
    with pytest.raises(SystemExit) as exc:
        main(["check", "--family", "classical"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, doc, _ = run(capsys, "check", "--correlations", "1,1,1,-1")
    assert code == 1
    assert set(doc["families"]) == {"bell", "quantum", "tsirelson"}
    assert doc["correlations"]["e22"] == "-1"
