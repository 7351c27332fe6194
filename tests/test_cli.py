import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ellsw import bundle, cli
from ellsw.cli import main
from ellsw.errors import CharacterConflictError, DomainError, InternalInvariantError
from ellsw.errors import NotRationalError
from ellsw.groups import BLOCK_BOUND, KEY_BOUND, GroupSpec
from ellsw.swindex import _singular_sums, sweep_specs

from character_checks import trivial_rho

SRC = Path(__file__).resolve().parents[1] / "src"


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


def _spec_name(record):
    spec = record["spec"]
    return f"{spec['family']} m={spec['m']} n={spec.get('n', 0)}"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_swdim_sweep_verify_pass_reports_exactly_the_changed_specs(tmp_path, capsys, newline):
    catalog = tmp_path / "records.jsonl"
    argv = ["swdim", "--sweep", "--max-order", "200", "--catalog", str(catalog)]
    assert run(argv, capsys)[0] == 0
    lines = catalog.read_text(encoding="utf-8").splitlines()
    rng = random.Random(5)
    rng.shuffle(lines)
    changed = set()

    def change(i, field):
        record = json.loads(lines[i])
        if field == "dE":
            record["dE"] += 2
        elif field == "S":
            record["S"][min(record["S"])] = "12345/7"
        else:
            record["sum_chi"] = "-12345/7"
        lines[i] = json.dumps(record)
        return _spec_name(record)

    for i in rng.sample(range(2, len(lines)), 6):
        changed.add(change(i, rng.choice(["dE", "S", "sum_chi"])))
    # A spec stored twice: the last line wins, so an earlier changed copy is
    # no drift, and a changed copy after the first is one.
    for i, later_changed in ((len(lines) - 1, False), (len(lines) - 2, True)):
        copy = lines[i]
        if later_changed:
            lines.append(copy)
            changed.add(change(len(lines) - 1, "dE"))
        else:
            lines.insert(0, copy)
            change(0, "dE")
    # An extra field of multi-byte characters near the top, so that byte and
    # character offsets differ for every record after it; an extra field is
    # a difference too.
    record = json.loads(lines[1])
    record["note"] = "Ωμέγα ∂ \U0001f600"
    lines[1] = json.dumps(record, ensure_ascii=False)
    changed.add(_spec_name(record))
    for i in sorted(rng.sample(range(len(lines)), 5), reverse=True):
        lines.insert(i, rng.choice(["", "  ", "\t"]))
    content = (newline.join(lines) + newline).encode("utf-8")
    catalog.write_bytes(content)

    code, out, err = run(argv, capsys)
    drifts = {line[len("DRIFT "):] for line in out.splitlines() if line.startswith("DRIFT ")}
    assert (code, err) == (3, "")
    assert drifts == changed and len(changed) >= 7
    assert out.endswith(
        f"swept {len(sweep_specs(200))} specs: 0 closed-form mismatches, "
        f"{len(changed)} catalog drifts, 0 records appended\n"
    )
    assert catalog.read_bytes() == content


def test_swdim_sweep_validates_but_does_not_compare_lines_outside_the_sweep(tmp_path, capsys):
    catalog = tmp_path / "records.jsonl"
    run(["swdim", "--sweep", "--max-order", "200", "--catalog", str(catalog)], capsys)
    lines = catalog.read_text(encoding="utf-8").splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    k = next(k for k, r in enumerate(records) if r["order"] > 100)
    records[k]["dE"] += 2
    lines[k] = json.dumps(records[k]) + "\n"
    content = "".join(lines).encode("utf-8")
    catalog.write_bytes(content)
    argv = ["swdim", "--sweep", "--max-order", "100", "--catalog", str(catalog)]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert "DRIFT" not in out
    assert out.endswith("0 closed-form mismatches, 0 catalog drifts, 0 records appended\n")
    assert catalog.read_bytes() == content
    # A line outside the sweep is still validated: an invalid spec fails it.
    content += b'{"spec": {"family": "DD", "m": 2, "n": 3}}\n'
    catalog.write_bytes(content)
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"input error: catalog {catalog} line {len(lines) + 1}: invalid spec: "
        "family DD requires m odd\n"
    )
    assert catalog.read_bytes() == content


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
    assert "f(h z) = zeta_1^0 f(z)" in out
    assert "f(x z) = zeta_2^1 f(z)" in out
    assert "f(y z) = zeta_1^0 f(z)" in out


def test_verify_rho_command_reports_a_failing_generator(capsys, monkeypatch):
    # The trivial character on DD(1,3) is consistent, but f(x z) = -f(z).
    monkeypatch.setattr(bundle, "generator_table", trivial_rho(bundle.generator_table))
    argv = ["verify-rho", "--family", "DD", "--m", "1", "--n", "3"]
    code, out, _ = run(argv, capsys)
    assert code == 3
    lines = out.splitlines()
    fail = lines.index("FAIL  f(x z) != rho(x) f(z)")
    assert lines[fail + 1] == "      V(x) = zeta_2^1, rho(x) = zeta_1^0"
    assert lines[-1] == "FAIL"
    code, out, _ = run(argv + ["--json"], capsys)
    assert code == 3
    rec = json.loads(out)
    assert rec["ok"] is False
    witness = {"generator": "x", "ok": False, "V": "zeta_2^1", "rho": "zeta_1^0"}
    assert witness in rec["witnesses"]


def test_verify_rho_forms_no_cyclotomic_value(capsys, monkeypatch):
    # The transfer route compares integer exponents mod 2m, so a large m
    # costs no Phi_2m: DD(100001, 2) has 800,008 keys in 4 blocks.
    def no_root(*args):
        raise AssertionError("the transfer route formed a root of unity")

    monkeypatch.setattr(bundle, "root_of_unity", no_root)
    start = time.perf_counter()
    code, out, _ = run(["verify-rho", "--family", "DD", "--m", "100001", "--n", "2"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


@pytest.mark.parametrize(
    "argv",
    [
        # a removed flag
        ["verify-rho", "--family", "DD", "--m", "1", "--n", "3", "--u1", "1"],
        # a family that is not one of the choices
        ["verify-rho", "--family", "XX", "--m", "1"],
        # a value that is not an integer
        ["verify-rho", "--family", "DD", "--m", "one", "--n", "3"],
    ],
    ids=["removed-flag", "bad-family", "non-integer-m"],
)
def test_usage_errors_are_parameter_errors(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, target, error",
    [
        ("verify-rho", "section_equivariance_report", CharacterConflictError("rho(x) conflicts")),
        ("group", "group_report", DomainError("outside the domain")),
        ("swdim", "sw_dimension_report", NotRationalError("zeta_3")),
    ],
    ids=["character-conflict", "domain", "not-rational"],
)
def test_library_errors_are_internal_errors(capsys, monkeypatch, command, target, error):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, target, fail)
    code, out, err = run([command, "--family", "DD", "--m", "1", "--n", "3"], capsys)
    assert code == 3
    assert out == ""
    assert err == f"internal error: {error}\n"


HUGE_DD = ["--family", "DD", "--m", "99999999999999999999999", "--n", "2"]


@pytest.mark.parametrize("command", ["group", "verify-rho"])
def test_order_past_maxsize_is_a_parameter_error(capsys, command):
    # |G| = 8 * 10^23 - 8: no range(|G|) of keys has a len().
    code, out, err = run([command, *HUGE_DD], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["group", "verify-rho"])
@pytest.mark.parametrize(
    "m, n",
    [(10**18 + 1, 2), (1, 10**15), (1, BLOCK_BOUND // 2 + 1)],
    ids=["keys-past-bound", "both-past-bound", "blocks-past-bound"],
)
def test_blocks_past_bound_are_a_parameter_error(capsys, command, m, n):
    # |G| fits in sys.maxsize, but |G| bits of block masks or |G| / K = 2n
    # masks would be allocated before the closure starts.
    start = time.perf_counter()
    code, out, err = run([command, "--family", "DD", "--m", str(m), "--n", str(n)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"at most {KEY_BOUND} keys and {BLOCK_BOUND} blocks" in err


@pytest.mark.parametrize("command", ["swdim", "seifert"])
def test_order_past_maxsize_has_closed_forms(capsys, command):
    code, out, _ = run([command, *HUGE_DD], capsys)
    assert code == 0
    assert "m=99999999999999999999999" in out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-rho", "--help"])
    assert exc.value.code == 0
    assert "--family" in capsys.readouterr().out


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


MEMBER_POINT = {"order": 6, "l": 1, "lp": None, "ambient": 6, "cone_point": True, "group_order": 24}


@pytest.mark.parametrize(
    "doc",
    [
        # Negative indices would silently pick the last two points.
        {
            "class": {"CC": "1/2", "KC": "0"},
            "points": [
                {"order": 3, "l": 1, "lp": 1, "ambient": 6},
                {"order": 2, "l": 1, "lp": 1, "ambient": 6},
            ],
            "pairs": [{"i": -1, "j": -2}],
        },
        # int() would truncate 6.9 to 6 and 0.5 to 0, and read true as 1.
        {"class": {"CC": "2/3", "KC": "-4/3"}, "points": [{**MEMBER_POINT, "order": 6.9}]},
        {"class": {"CC": "2/3", "KC": "-4/3"}, "underlying_genus": 0.5, "points": [MEMBER_POINT]},
        {"class": {"CC": "2/3", "KC": "-4/3"}, "points": [{**MEMBER_POINT, "l": True}]},
    ],
    ids=["negative-pair-index", "float-order", "float-genus", "bool-winding"],
)
def test_audit_integer_fields_take_only_integers(tmp_path, capsys, doc):
    path = tmp_path / "bad.audit"
    path.write_text(json.dumps(doc))
    code, _, err = run(["audit", "--input", str(path)], capsys)
    assert code == 2
    assert "input error: malformed audit document: " in err


@pytest.mark.parametrize(
    "doc",
    [
        # Fraction() would read 0.1 as 3602879701896397/36028797018963968,
        # and true as 1.
        {"class": {"CC": 0.1, "KC": "-4/3"}, "points": [MEMBER_POINT]},
        {"class": {"CC": "2/3", "KC": True}, "points": [MEMBER_POINT]},
        {"class": {"CC": "2/3", "KC": "-4/3"}, "points": [MEMBER_POINT], "extra_terms": [0.5]},
        # No group has order 0, and no surface a negative genus.
        {"class": {"CC": "2/3", "KC": "-4/3"}, "points": [{**MEMBER_POINT, "group_order": 0}]},
        {"class": {"CC": "2/3", "KC": "-4/3"}, "underlying_genus": -3, "points": [MEMBER_POINT]},
    ],
    ids=["float-pairing", "bool-pairing", "float-extra-term", "zero-group-order", "negative-genus"],
)
def test_audit_rejects_inexact_rationals_and_impossible_values(tmp_path, capsys, doc):
    path = tmp_path / "bad.audit"
    path.write_text(json.dumps(doc))
    code, _, err = run(["audit", "--input", str(path)], capsys)
    assert code == 2
    assert "input error: malformed audit document: " in err


@pytest.mark.parametrize(
    "doc",
    [
        {"class": {"CC": "1e5000", "KC": "0"}},
        {"class": {"CC": "2/3", "KC": "-4/3"}, "extra_terms": ["1e-5000"]},
        {"class": {"CC": "1e5000", "KC": "-1e5000"}},  # exact sums would cancel
    ],
    ids=["numerator", "denominator", "cancelling"],
)
def test_audit_rational_past_the_digit_limit_exit_code(tmp_path, capsys, doc):
    # Read exactly, the value's "p/q" string would pass the interpreter's
    # limit on integer string conversion; its exponent is refused first.
    path = tmp_path / "big.audit"
    path.write_text(json.dumps(doc))
    code, _, err = run(["audit", "--input", str(path)], capsys)
    assert code == 2
    assert "input error: malformed audit document: " in err
    assert "digits" in err


# Times one `main` call in a child, so that a value which hangs the reader
# fails the test by its timeout instead of stalling the suite.
TIMED_MAIN = (
    "import sys, time; from ellsw.cli import main; start = time.perf_counter(); "
    "code = main(sys.argv[1:]); print(code, time.perf_counter() - start)"
)


@pytest.mark.parametrize(
    "value, expected",
    [("1e99999999", 2), ("-1e-99999999", 2), ("0e99999999", 2), ("1e9_999_999", 2), ("1e400", 0)],
)
def test_audit_exponent_past_the_digit_limit_exit_code(tmp_path, value, expected):
    # Fraction would form 10^99999999 before reading the mantissa; the audit
    # refuses an exponent past sys.get_int_max_str_digits() first.
    path = tmp_path / "exp.audit"
    path.write_text(json.dumps({"class": {"CC": value, "KC": "0"}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, "audit", "--input", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    code, seconds = done.stdout.split()[-2:]
    assert int(code) == expected, done.stderr
    assert float(seconds) < 1
    if expected:
        assert "exceeds the limit of" in done.stderr


def test_audit_missing_file_exit_code(capsys):
    code, _, _ = run(["audit", "--input", "/nonexistent/file.audit"], capsys)
    assert code == 2


def test_swdim_sweep_torn_catalog_line_exit_code(tmp_path, capsys):
    catalog = tmp_path / "records.jsonl"
    argv = ["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)]
    run(argv, capsys)
    text = catalog.read_text()
    catalog.write_text(text + text.splitlines()[0][:25])  # a crash mid-append
    n_lines = len(text.splitlines()) + 1
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == f"catalog {catalog} line {n_lines}: dropped a torn last record (25 bytes)\n"
    assert "0 catalog drifts, 0 records appended" in out
    assert catalog.read_text() == text
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert "0 catalog drifts, 0 records appended" in out


def test_swdim_sweep_appends_after_a_last_line_without_newline(tmp_path, capsys):
    catalog = tmp_path / "records.jsonl"
    run(["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)], capsys)
    catalog.write_text(catalog.read_text().rstrip("\n"))  # an editor dropped the newline
    argv = ["swdim", "--sweep", "--max-order", "60", "--catalog", str(catalog)]
    code, out, _ = run(argv, capsys)
    assert code == 0 and "0 catalog drifts" in out
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert "0 catalog drifts, 0 records appended" in out
    assert all(json.loads(line) for line in catalog.read_text().splitlines())


def test_swdim_sweep_torn_line_before_the_last_exit_code(tmp_path, capsys):
    catalog = tmp_path / "records.jsonl"
    argv = ["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)]
    run(argv, capsys)
    lines = catalog.read_text().splitlines(keepends=True)
    torn = "".join(lines[:3]) + lines[3][:25] + "".join(lines[4:])
    catalog.write_text(torn)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert str(catalog) in err and "line 4" in err
    assert catalog.read_text() == torn  # nothing cut, nothing appended


def test_swdim_sweep_syncs_the_catalog_once(tmp_path, capsys, monkeypatch):
    synced = []
    monkeypatch.setattr(cli.os, "fsync", synced.append)
    catalog = tmp_path / "records.jsonl"
    code, _, _ = run(["swdim", "--sweep", "--max-order", "60", "--catalog", str(catalog)], capsys)
    assert code == 0 and len(synced) == 1
    assert len(catalog.read_text().splitlines()) == len(sweep_specs(60))


def test_swdim_sweep_unwritable_catalog_exit_code(tmp_path, capsys):
    catalog = tmp_path / "missing" / "records.jsonl"
    code, _, err = run(["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)], capsys)
    assert code == 2
    assert err.startswith("input error:") and str(catalog) in err


def test_swdim_sweep_checks_the_catalog_before_any_spec(tmp_path, capsys, monkeypatch):
    computed = []
    original = cli._sw_record

    def record(spec):
        computed.append(spec)
        return original(spec)

    monkeypatch.setattr(cli, "_sw_record", record)
    catalog = tmp_path / "missing" / "records.jsonl"
    argv = ["swdim", "--sweep", "--max-order", "16000", "--catalog", str(catalog)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err == (
        f"input error: cannot append to catalog {catalog}: "
        f"[Errno 2] No such file or directory: '{catalog}'\n"
    )
    assert out == "" and computed == []


@pytest.mark.parametrize(
    "first, message",
    [(b"#", "invalid JSON in catalog {} line {}: Expecting value: line 1 column 1 (char 0)"),
     (b"[]", "catalog {} line {}: record has no valid spec")],
    ids=["not-json", "not-a-record"],
)
def test_swdim_sweep_catalog_changed_under_the_sweep_exit_code(
    tmp_path, capsys, monkeypatch, first, message
):
    # The verify pass keeps each record's offset, not its text, and reads
    # the record again when it reaches the spec: a record overwritten after
    # the first pass is an input error naming its line, not a traceback.
    # The last record lies past the first read buffer, so the sweep reads
    # it from the file after it was overwritten.
    catalog = tmp_path / "records.jsonl"
    argv = ["swdim", "--sweep", "--max-order", "200", "--catalog", str(catalog)]
    run(argv, capsys)
    lines = catalog.read_bytes().splitlines(keepends=True)
    last = sum(map(len, lines[:-1]))
    assert last > 2 * io.DEFAULT_BUFFER_SIZE
    specs = sweep_specs(200)
    original = cli._sw_record

    def record(spec):
        if spec == specs[1]:
            with open(catalog, "r+b") as fh:
                fh.seek(last)
                fh.write(first.ljust(len(lines[-1]) - 1))
        return original(spec)

    monkeypatch.setattr(cli, "_sw_record", record)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err == "input error: " + message.format(catalog, len(lines)) + "\n"
    assert len(out.splitlines()) == len(specs) - 1  # the rows of the specs before


def test_swdim_sweep_keeps_the_specs_before_an_internal_error(tmp_path, capsys, monkeypatch):
    specs = sweep_specs(40)
    expected = [cli._sw_record(spec) for spec in specs[:4]]
    original = cli.sw_dimension_report

    def report(spec):
        if spec == specs[4]:
            raise InternalInvariantError("forced", witness={"key": 7})
        return original(spec)

    monkeypatch.setattr(cli, "sw_dimension_report", report)
    catalog = tmp_path / "records.jsonl"
    argv = ["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)]
    code, out, err = run(argv, capsys)
    spec = specs[4]
    name = f"{spec.family} m={spec.m} n={spec.n}"
    assert code == 3
    rows = out.splitlines()
    assert len(rows) == 4 and all(row.endswith(" ok") for row in rows)
    assert [row.split()[:3] for row in rows] == [
        [s.family, f"m={s.m}", f"n={s.n}"] for s in specs[:4]
    ]
    records = [json.loads(line) for line in catalog.read_text().splitlines()]
    assert [{k: v for k, v in r.items() if k != "computed_at"} for r in records] == expected
    assert err == f"internal error: {name}: forced\n"
    # The sweep's error names the spec, chains the original, keeps its witness.
    monkeypatch.delenv("ELLSW_CATALOG", raising=False)
    with pytest.raises(InternalInvariantError) as info:
        cli._swdim_sweep(cli.build_parser().parse_args(argv[:4]))
    assert str(info.value) == f"{name}: forced"
    assert info.value.witness == {"key": 7}
    assert str(info.value.__cause__) == "forced"


def test_swdim_sweep_with_no_spec_creates_no_catalog(tmp_path, capsys):
    catalog = tmp_path / "records.jsonl"
    code, out, _ = run(["swdim", "--sweep", "--max-order", "7", "--catalog", str(catalog)], capsys)
    assert code == 0
    assert out.endswith("swept 0 specs: 0 closed-form mismatches, 0 catalog drifts, 0 records appended\n")
    assert not catalog.exists()


DD_1_2 = b'{"spec": {"family": "DD", "m": 1, "n": 2}}\n'


@pytest.mark.parametrize(
    "content, code, message",
    [
        (DD_1_2 + b'{"spec": {"fam', 0, ""),  # a torn last record
        (DD_1_2.rstrip(), 0, ""),  # a last record without its newline
        (b'{"order": 8}\n', 2, "input error: catalog {} line 1: record has no valid spec\n"),
    ],
    ids=["torn", "open-end", "no-spec"],
)
def test_swdim_sweep_with_no_spec_leaves_the_catalog_alone(tmp_path, capsys, content, code, message):
    catalog = tmp_path / "records.jsonl"
    catalog.write_bytes(content)
    got, _, err = run(["swdim", "--sweep", "--max-order", "7", "--catalog", str(catalog)], capsys)
    assert (got, err) == (code, message.format(catalog))
    assert catalog.read_bytes() == content


def test_swdim_sweep_catalog_decode_error_after_the_first_chunk(tmp_path, capsys):
    catalog = tmp_path / "records.jsonl"
    catalog.write_bytes(DD_1_2 * 400 + b'{"spec": "\xff"}\n')  # 17,200 bytes of records first
    code, out, err = run(["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)], capsys)
    assert code == 2 and out == ""
    assert err == (
        f"input error: cannot read {catalog}: 'utf-8' codec can't decode byte 0xff "
        "in position 826: invalid start byte\n"
    )


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["swdim", "--family", "OO", "--m", "7", "--json"]
    code, out, _ = run(argv, capsys)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ellsw", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert code == 0
    assert done.returncode == 0 and done.stdout == out


@pytest.mark.parametrize(
    "record",
    [
        '{"dE": 2}',
        '{"spec": {"family": ["DD"], "m": 1}}',
        '{"spec": {"family": "DD", "m": "1", "n": 2}, "dE": 2}',
        '{"spec": {"family": "DD", "m": 1.0, "n": 2}, "dE": 2}',
        '{"spec": {"family": "DD", "m": true, "n": 2}, "dE": 2}',
        '{"spec": {"family": "DD", "m": 2, "n": 2}, "dE": 2}',  # m even, gcd(m, n) = 2
    ],
    ids=["no-spec", "unhashable-family", "string-m", "float-m", "bool-m", "invalid-DD"],
)
def test_swdim_sweep_record_without_spec_exit_code(tmp_path, capsys, record):
    catalog = tmp_path / "records.jsonl"
    catalog.write_text(record + "\n")
    code, _, err = run(["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)], capsys)
    assert code == 2
    assert str(catalog) in err and "line 1" in err and "spec" in err
    assert catalog.read_text() == record + "\n"  # nothing appended


@pytest.mark.parametrize(
    "text",
    [
        '{"class": {"CC": "1/0", "KC": "0"}}',
        '{"class": {"CC": "1/2", "KC": "0"}, "extra_terms": ["1/0"]}',
        '{"class": {"CC": 1e400, "KC": "0"}}',  # JSON reads 1e400 as inf
        '{"class": {"CC": "1/2", "KC": "0"}, "underlying_genus": 1e400}',
    ],
    ids=["zero-denominator", "zero-denominator-extra-term", "infinite-CC", "infinite-genus"],
)
def test_audit_arithmetic_errors_exit_code(tmp_path, capsys, text):
    path = tmp_path / "bad.audit"
    path.write_text(text)
    code, _, err = run(["audit", "--input", str(path)], capsys)
    assert code == 2
    assert "malformed audit document" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"class": {"CC": ' + "9" * 5000 + ', "KC": 0}}',  # past the int digit limit
        "[" * 100000 + "]" * 100000,  # past the recursion limit of the parser
    ],
    ids=["oversized-integer", "deep-nesting"],
)
def test_audit_unparsable_json_exit_code(tmp_path, capsys, text):
    path = tmp_path / "big.audit"
    path.write_text(text)
    code, _, err = run(["audit", "--input", str(path)], capsys)
    assert code == 2
    assert "invalid JSON" in err


def test_audit_unreadable_input_exit_code(tmp_path, capsys):
    code, _, _ = run(["audit", "--input", str(tmp_path)], capsys)  # a directory
    assert code == 2
    path = tmp_path / "latin1.audit"
    path.write_bytes(b'{"class": "\xff"}')
    code, _, _ = run(["audit", "--input", str(path)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "content,where",
    [
        ('{"spec": {"family": "DD", "m": ' + "9" * 5000 + "}}\n", "line 1"),  # past the int digit limit
        ("[" * 100000 + "]" * 100000 + "\n", "line 1"),  # past the recursion limit of the parser
        (b'{"spec": "\xff"}\n', None),  # not UTF-8
        (None, None),  # a directory
    ],
    ids=["oversized-integer", "deep-nesting", "non-utf8", "directory"],
)
def test_swdim_sweep_unreadable_catalog_exit_code(tmp_path, capsys, content, where):
    catalog = tmp_path / "records.jsonl"
    if content is None:
        catalog.mkdir()
    elif isinstance(content, bytes):
        catalog.write_bytes(content)
    else:
        catalog.write_text(content)
    code, _, err = run(["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)], capsys)
    assert code == 2
    assert err.startswith("input error:") and str(catalog) in err
    if where:
        assert where in err


def test_swdim_sweep_reports_a_closed_form_mismatch(capsys, monkeypatch):
    closed_form = cli.closed_form_d_E
    monkeypatch.setattr(
        cli, "closed_form_d_E", lambda spec: closed_form(spec) + 2 * (spec == GroupSpec("DD", 1, 2))
    )
    code, out, _ = run(["swdim", "--sweep", "--max-order", "40"], capsys)
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "DD m=1    n=2    |G|=8     dE=4   closed=6   FAIL"
    assert all(line.endswith(" ok") for line in lines[1:-1])
    assert lines[-1] == (
        "swept 14 specs: 1 closed-form mismatches, 0 catalog drifts, 0 records appended"
    )


def test_audit_pair_term_within_range(tmp_path, capsys):
    doc = {
        "class": {"CC": "0", "KC": "0"},
        "points": [{"order": 2, "l": 1, "lp": 1, "ambient": 4},
                   {"order": 4, "l": 1, "lp": 1, "ambient": 4}],
        "pairs": [{"i": 0, "j": 1}],
    }
    path = tmp_path / "pair.audit"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["audit", "--input", str(path), "--json"], capsys)
    result = json.loads(out)
    assert code == 0
    assert result["rhs_terms"][-1] == ["k_pair_0_1", "1/2"]
    assert result["slack"] == "-3/8" and not result["feasible"]


@pytest.mark.parametrize(
    "point, message",
    [
        ({"order": 0, "l": 1}, "point record entries must be positive"),
        ({"order": 2, "l": 1, "lp": 0}, "defined winding l' must be positive"),
    ],
    ids=["zero-order", "zero-defined-winding"],
)
def test_audit_rejects_point_records(tmp_path, capsys, point, message):
    path = tmp_path / "point.audit"
    path.write_text(json.dumps({"class": {"CC": "1/2", "KC": "0"}, "points": [point]}))
    code, _, err = run(["audit", "--input", str(path)], capsys)
    assert code == 2
    assert err == f"input error: malformed audit document: {message}\n"


def test_swdim_sweep_failed_catalog_write_is_an_input_error(tmp_path, capsys, monkeypatch):
    def no_space(text):
        raise OSError(28, "No space left on device")

    def full_disk_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        fh.write = no_space
        return fh

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    catalog = tmp_path / "records.jsonl"
    code, out, err = run(["swdim", "--sweep", "--max-order", "40", "--catalog", str(catalog)], capsys)
    assert code == 2 and out == ""
    assert err == f"input error: cannot append to catalog {catalog}: [Errno 28] No space left on device\n"
