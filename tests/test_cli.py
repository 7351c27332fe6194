import json

import pytest

from ellsw.cli import main
from ellsw.swindex import _singular_sums


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_command(capsys):
    code, out, _ = run(["group", "--family", "DD", "--m", "3", "--n", "2"], capsys)
    assert code == 0
    assert "order          24" in out


def test_group_command_json(capsys):
    code, out, _ = run(["group", "--family", "II", "--m", "1", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["order"] == 120
    assert rec["abelianization"] == []


def test_invalid_parameters_exit_code(capsys):
    code, _, err = run(["group", "--family", "DD", "--m", "2", "--n", "3"], capsys)
    assert code == 1
    assert "odd" in err


def test_seifert_command(capsys):
    code, out, _ = run(["seifert", "--family", "OO", "--m", "5"], capsys)
    assert code == 0
    assert "(2,1)  (3,2)  (4,1)" in out


def test_swdim_command(capsys):
    code, out, _ = run(["swdim", "--family", "II", "--m", "7"], capsys)
    assert code == 0
    assert "d(E)          4" in out
    assert "S0=32/1" in out


def test_swdim_json_deterministic(capsys):
    code, out1, _ = run(["swdim", "--family", "TT", "--m", "5", "--json"], capsys)
    assert code == 0
    _singular_sums.cache_clear()
    code, out2, _ = run(["swdim", "--family", "TT", "--m", "5", "--json"], capsys)
    assert code == 0
    assert out1 == out2


def test_swdim_sweep_with_catalog(tmp_path, capsys):
    catalog = tmp_path / "records.jsonl"
    code, out, _ = run(
        ["swdim", "--sweep", "--max-order", "120", "--catalog", str(catalog)], capsys
    )
    assert code == 0
    assert "0 closed-form mismatches" in out
    lines = [l for l in catalog.read_text().splitlines() if l.strip()]
    assert lines and all("computed_at" in json.loads(l) for l in lines)
    # Re-running verifies the stored records and appends nothing.
    n_before = len(lines)
    code, out, _ = run(
        ["swdim", "--sweep", "--max-order", "120", "--catalog", str(catalog)], capsys
    )
    assert code == 0
    assert "0 catalog drifts" in out
    assert len(catalog.read_text().splitlines()) == n_before


def test_swdim_sweep_detects_catalog_drift(tmp_path, capsys):
    catalog = tmp_path / "records.jsonl"
    run(["swdim", "--sweep", "--max-order", "60", "--catalog", str(catalog)], capsys)
    records = [json.loads(l) for l in catalog.read_text().splitlines()]
    records[0]["dE"] = 998
    catalog.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code, out, _ = run(
        ["swdim", "--sweep", "--max-order", "60", "--catalog", str(catalog)], capsys
    )
    assert code == 3
    assert "DRIFT" in out


def test_catalog_env_fallback(tmp_path, capsys, monkeypatch):
    catalog = tmp_path / "env_records.jsonl"
    monkeypatch.setenv("ELLSW_CATALOG", str(catalog))
    code, _, _ = run(["swdim", "--sweep", "--max-order", "40"], capsys)
    assert code == 0
    assert catalog.exists()


def test_verify_rho_command(capsys):
    code, out, _ = run(["verify-rho", "--family", "DD", "--m", "1", "--n", "3"], capsys)
    assert code == 0
    assert "PASS" in out
    assert "f(x z) = zeta_2^1 f(z)" in out


def test_audit_command(tmp_path, capsys):
    doc = {
        "class": {"CC": "2/3", "KC": "-4/3"},
        "underlying_genus": 0,
        "points": [
            {"order": 6, "l": 1, "lp": None, "ambient": 6, "cone_point": True, "group_order": 24}
        ],
    }
    path = tmp_path / "member.audit"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["audit", "--input", str(path)], capsys)
    assert code == 0
    assert "slack                0/1" in out


def test_audit_bad_document_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.audit"
    path.write_text("{not json")
    code, _, err = run(["audit", "--input", str(path)], capsys)
    assert code == 2
    assert "line" in err


def test_audit_missing_file_exit_code(capsys):
    code, _, _ = run(["audit", "--input", "/nonexistent/file.audit"], capsys)
    assert code == 2


def test_swdim_sweep_torn_catalog_line_exit_code(tmp_path, capsys):
    catalog = tmp_path / "records.jsonl"
    run(["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)], capsys)
    text = catalog.read_text()
    catalog.write_text(text + text.splitlines()[0][:25])  # a crash mid-append
    n_lines = len(text.splitlines()) + 1
    code, _, err = run(["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)], capsys)
    assert code == 2
    assert str(catalog) in err and f"line {n_lines}" in err


@pytest.mark.parametrize(
    "record",
    ['{"dE": 2}', '{"spec": {"family": ["DD"], "m": 1}}'],
    ids=["no-spec", "unhashable-family"],
)
def test_swdim_sweep_record_without_spec_exit_code(tmp_path, capsys, record):
    catalog = tmp_path / "records.jsonl"
    catalog.write_text(record + "\n")
    code, _, err = run(["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)], capsys)
    assert code == 2
    assert str(catalog) in err and "line 1" in err and "spec" in err
