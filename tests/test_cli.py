"""Command line behavior: exit codes, file round trips, determinism."""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermlat.claims as claims
import hermlat.cli as cli
import hermlat.forms as forms
import hermlat.lattice as lattice
import hermlat.roots as roots
from oracles import apply_basis_change, e8_gram, random_unimodular
from hermlat.charvec import characteristic_defect, defect_certificate_check, min_characteristic
from hermlat.forms import HermitianForm, build_form, build_form_power, reduce_form, transfer
from hermlat.lattice import Budget, GramMatrix, direct_sum, enumerate_short
from hermlat.ring import LaurentPoly, sym_power
from hermlat.roots import identity_gram


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _nodes(search, *args):
    """The nodes that one call search(*args, budget) spends from a fresh Budget."""
    budget = Budget()
    search(*args, budget)
    return budget.used


def test_build_power(tmp_path, capsys):
    out = tmp_path / "L.json"
    code, stdout, _ = run(capsys, "build", "--k", "1", "--out", str(out))
    assert code == 0
    assert "det: 1" in stdout and "hermitian: true" in stdout
    data = json.loads(out.read_text())
    assert data["size"] == 4


def test_build_multiplier(tmp_path, capsys):
    out = tmp_path / "La.json"
    code, stdout, _ = run(capsys, "build", "--a", "2 + x^5 + x^-5", "--out", str(out))
    assert code == 0 and "det: 1" in stdout


def test_build_rejects_non_self_conjugate(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--a", "x^1", "--out", str(tmp_path / "x.json"))
    assert code == 3 and "self-conjugate" in err


def test_build_rejects_garbage(tmp_path, capsys):
    code, _, _ = run(capsys, "build", "--a", "x^^oops", "--out", str(tmp_path / "x.json"))
    assert code == 2
    code, _, _ = run(capsys, "build", "--k", "0", "--out", str(tmp_path / "x.json"))
    assert code == 3


def test_build_requires_exactly_one_source(tmp_path, capsys):
    code = cli.main(["build", "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 2
    code = cli.main(["build", "--k", "1", "--a", "0", "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 2


def test_transfer_round_trip(tmp_path, capsys):
    form_file = tmp_path / "L.json"
    gram_file = tmp_path / "V3.json"
    run(capsys, "build", "--k", "1", "--out", str(form_file))
    code, stdout, _ = run(capsys, "transfer", str(form_file), "--n", "3", "--out", str(gram_file))
    assert code == 0 and "rank: 12" in stdout
    G = GramMatrix.from_json_dict(json.loads(gram_file.read_text()))
    assert G.diagonal() == (3,) * 6 + (2,) * 6
    # files re-serialize bit-identically
    assert cli._dump_json(json.loads(gram_file.read_text())) == gram_file.read_text()
    # and so do the rank-4 and rank-288 files of the direct writer
    for n in (1, 72):
        run(capsys, "transfer", str(form_file), "--n", str(n), "--out", str(gram_file))
        assert cli._dump_json(json.loads(gram_file.read_text())) == gram_file.read_text()


@st.composite
def _reduced_forms(draw):
    """Reductions mod x^n - 1, n = 1..12, of hermitian forms of size 1..4
    whose entries have exponents in -6..6 and negative and multi-digit
    coefficients."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    coeff = st.integers(-9, 9) | st.integers(-(10**30), 10**30)
    poly = st.dictionaries(st.integers(-6, 6), coeff, max_size=4).map(LaurentPoly)
    upper = {(i, j): draw(poly) for i in range(m) for j in range(i + 1, m)}
    for i in range(m):
        d = draw(poly)
        upper[i, i] = d + d.conj()
    rows = [[upper[i, j] if i <= j else upper[j, i].conj() for j in range(m)] for i in range(m)]
    return reduce_form(HermitianForm(rows), n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_reduced_forms())
def test_gram_writer_matches_the_json_encoder(Gn):
    assert cli._gram_json(Gn) == cli._dump_json(transfer(Gn).to_json_dict())


def test_transfer_errors(tmp_path, capsys):
    form_file = tmp_path / "L.json"
    run(capsys, "build", "--k", "1", "--out", str(form_file))
    code, _, _ = run(capsys, "transfer", str(tmp_path / "nope.json"), "--n", "2", "--out", str(tmp_path / "x.json"))
    assert code == 2
    code, _, _ = run(capsys, "transfer", str(form_file), "--n", "0", "--out", str(tmp_path / "x.json"))
    assert code == 3
    gram_file = tmp_path / "V.json"
    run(capsys, "transfer", str(form_file), "--n", "2", "--out", str(gram_file))
    code, _, _ = run(capsys, "transfer", str(gram_file), "--n", "2", "--out", str(tmp_path / "x.json"))
    assert code == 2  # wrong file type


def test_transfer_determinant_hand_written_form(tmp_path, capsys):
    form_file, gram_file = tmp_path / "F.json", tmp_path / "G.json"
    form_file.write_text(json.dumps({"size": 1, "entries": [[{"0": 3, "1": 1, "-1": 1}]]}))
    code, stdout, _ = run(capsys, "transfer", str(form_file), "--n", "5", "--out", str(gram_file))
    assert code == 0 and stdout == "rank: 5\ndeterminant: 125\n"
    assert GramMatrix.from_json_dict(json.loads(gram_file.read_text())).determinant() == 125


def test_transfer_large_modulus(tmp_path, capsys):
    form_file, gram_file = tmp_path / "L.json", tmp_path / "V72.json"
    run(capsys, "build", "--k", "1", "--out", str(form_file))
    code, stdout, _ = run(capsys, "transfer", str(form_file), "--n", "72", "--out", str(gram_file))
    assert code == 0 and stdout == "rank: 288\ndeterminant: 1\n"
    G = GramMatrix.from_json_dict(json.loads(gram_file.read_text()))
    assert G == transfer(reduce_form(build_form_power(1), 72))
    # the file written from the reduction is the json encoding of the dense transfer
    for l in (1, 5, 21):
        run(capsys, "build", "--a", f"x^{l} + x^-{l}", "--out", str(form_file))
        form = build_form(sym_power(l))
        for n in (1, 2, 3, 5, 13, 72):
            code, stdout, _ = run(capsys, "transfer", str(form_file), "--n", str(n), "--out", str(gram_file))
            assert code == 0 and stdout == f"rank: {4 * n}\ndeterminant: 1\n"
            expected = cli._dump_json(transfer(reduce_form(form, n)).to_json_dict())
            assert gram_file.read_bytes() == expected.encode("utf-8")


def test_transfer_rejects_a_form_that_is_not_hermitian(tmp_path, capsys):
    # loading the form is the transfer's only symmetry check: x sits at both
    # (0, 1) and (1, 0), where hermitian symmetry wants x and 1/x
    form_file, gram_file = tmp_path / "F.json", tmp_path / "G.json"
    x, one = {"1": 1}, {"0": 1}
    form_file.write_text(json.dumps({"size": 2, "entries": [[one, x], [x, one]]}))
    code, stdout, err = run(capsys, "transfer", str(form_file), "--n", "3", "--out", str(gram_file))
    assert code == 2 and stdout == "" and _one_error_line(err)
    assert not gram_file.exists()


@pytest.mark.parametrize(
    "command, data",
    [
        ("transfer", [1]),
        ("analyze", [1]),
        ("transfer", {"size": 1, "entries": [[[1, 2]]]}),
        ("transfer", {"size": 0, "entries": []}),
        # int() would read these keys as the hermitian 3 + x + 1/x + x^10 + x^-10
        ("transfer", {"size": 1, "entries": [[{"0": 3, "01": 1, "-1": 1, "1_0": 1, "-10": 1}]]}),
        # rows that are not lists: one shape check for both file formats
        ("analyze", {"rank": 1, "gram": [1]}),
        ("analyze", {"rank": 2, "gram": ["12", "34"]}),
        ("transfer", {"size": 2, "entries": ["ab", "cd"]}),
        # a negative size names no shape
        ("analyze", {"rank": -1, "gram": []}),
        ("transfer", {"size": -2, "entries": []}),
    ],
)
def test_wrong_json_shape_is_a_parse_error(tmp_path, capsys, command, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + (["--n", "2", "--out", str(tmp_path / "x.json")] if command == "transfer" else [])
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert "not iterable" not in err
    assert "lists of -" not in err


@pytest.mark.parametrize("command", ["transfer", "analyze"])
def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "in.json"
    path.write_text("[" * 100000)
    argv = [command, str(path)] + (["--n", "2", "--out", str(tmp_path / "x.json")] if command == "transfer" else [])
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def _one_error_line(err):
    return len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def test_build_power_index_at_the_print_limit(tmp_path, capsys):
    # 2 b_7142 has 4300 digits, Python's default limit for printing an int
    code, stdout, err = run(capsys, "build", "--k", "7142", "--out", str(tmp_path / "x.json"))
    assert code == 0 and err == "" and "det: 1" in stdout


@pytest.mark.parametrize("k", ["7143", "1000000"])
def test_build_rejects_power_index_too_long_to_print(tmp_path, capsys, k):
    out = tmp_path / "x.json"
    t0 = time.monotonic()
    code, stdout, err = run(capsys, "build", "--k", k, "--out", str(out))
    assert time.monotonic() - t0 < 1
    assert code == 3 and stdout == "" and _one_error_line(err)
    assert not out.exists()


def test_analyze_determinant_too_long_to_print(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"rank": 2, "gram": [[10**4000, 0], [0, 10**4000]]}))
    code, stdout, err = run(capsys, "analyze", str(path))
    assert code == 3 and stdout == "" and _one_error_line(err)


def test_transfer_determinant_too_long_to_print(tmp_path, capsys):
    form_file, out = tmp_path / "F.json", tmp_path / "G.json"
    # a 4001-digit entry whose determinant is too long, and at n = 1 three
    # 4300-digit coefficients that fold into a Gram entry of 4301 digits
    big = 9 * 10**4299
    for entry, n in (({"0": 10**4000}, 3), ({"0": big, "1": big, "-1": big}, 1)):
        form_file.write_text(json.dumps({"size": 1, "entries": [[entry]]}))
        code, stdout, err = run(capsys, "transfer", str(form_file), "--n", str(n), "--out", str(out))
        assert code == 3 and stdout == "" and _one_error_line(err)
        assert not out.exists()


@pytest.mark.parametrize("n", [2**61, 2**63])
def test_transfer_rejects_a_modulus_too_large_to_reduce(tmp_path, capsys, n):
    # [0] * 2^61 fails CPython's size check (MemoryError) and [0] * 2^63 does
    # not fit an index (OverflowError); neither allocates anything
    form_file, out = tmp_path / "L.json", tmp_path / "G.json"
    run(capsys, "build", "--k", "1", "--out", str(form_file))
    code, stdout, err = run(capsys, "transfer", str(form_file), "--n", str(n), "--out", str(out))
    assert code == 3 and stdout == "" and _one_error_line(err)
    assert f"modulus {n} " in err
    assert not out.exists()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)
_self_conjugate = st.dictionaries(st.integers(0, 5), st.integers(-3, 9), max_size=3).map(
    lambda d: {str(s * e): c for e, c in d.items() for s in (1, -1)}
)


@st.composite
def _loader_inputs(draw):
    """(command, JSON value).  Half are well formed: a Gram file of small
    ints or a form file of self-conjugate Laurent polynomials, of size <= 4.
    The rest are arbitrary values, or files whose size field and symmetric
    entries are arbitrary."""
    command = draw(st.sampled_from(["analyze", "transfer"]))
    size = draw(st.integers(0, 4))
    keys = ("rank", "gram") if command == "analyze" else ("size", "entries")
    if draw(st.booleans()):
        diagonal = st.integers(1, 6) if command == "analyze" else _self_conjugate
        off = st.integers(-2, 2) if command == "analyze" else _self_conjugate
        upper = {(i, j): draw(diagonal if i == j else off) for i in range(size) for j in range(i, size)}
        count = size
    else:
        entry = draw(st.sampled_from([st.integers(-3, 9), _self_conjugate, _json_values]))
        upper = {(i, j): draw(entry) for i in range(size) for j in range(i, size)}
        count = draw(st.integers(-1, 5) | _json_values)
    rows = [[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)]
    return command, draw(st.just(dict(zip(keys, (count, rows)))) | _json_values)


@settings(max_examples=150, deadline=None)
@given(_loader_inputs(), st.integers(-1, 4))
def test_loaders_fuzz_end_with_a_documented_exit_code(command_data, n):
    command, data = command_data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(data))
        if command == "analyze":
            argv = ["analyze", str(path), "--budget", "10000"]
        else:
            argv = ["transfer", str(path), "--n", str(n), "--out", str(Path(tmp) / "out.json")]
        assert cli.main(argv) in (0, 2, 3, 4)


def test_analyze_v3(tmp_path, capsys):
    form_file, gram_file = tmp_path / "L.json", tmp_path / "V3.json"
    run(capsys, "build", "--k", "1", "--out", str(form_file))
    run(capsys, "transfer", str(form_file), "--n", "3", "--out", str(gram_file))
    code, stdout, _ = run(capsys, "analyze", str(gram_file))
    assert code == 0
    report = json.loads(stdout)
    assert report["defect"] == {"defect": 1, "min_norm": 4}
    assert report["mu"]["mu"] == 24
    assert report["identification"] == "Gamma12"
    assert report["roots"]["components"] == [{"type": "D", "rank": 12, "roots": 264}]
    assert report["standard"]["is_standard"] is False


def test_analyze_e8_plus_i4(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(direct_sum(e8_gram(), identity_gram(4)).to_json_dict()))
    code, stdout, _ = run(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(stdout)
    # the roots of I4 form a component of their own, but only E8 names the core
    assert report["roots"] == {
        "components": [
            {"type": "D", "rank": 4, "roots": 24},
            {"type": "E", "rank": 8, "roots": 240},
        ],
        "total_roots": 264,
        "spanning_rank": 12,
    }
    assert report["identification"] == "E8+I4"


def test_analyze_reduces_once_and_builds_one_root_graph(tmp_path, capsys, monkeypatch, vn):
    G = GramMatrix(apply_basis_change(vn(4).gram, random_unimodular(random.Random(5), 16, steps=48)))
    path = tmp_path / "V4.json"
    path.write_text(json.dumps(G.to_json_dict()))
    calls = {"lll": 0, "sweeps of the input": 0, "root graphs": 0}
    bounds = []

    def counted(key, fn, counts=lambda *args: True):
        def wrapper(*args, **kwargs):
            calls[key] += counts(*args)
            return fn(*args, **kwargs)
        return wrapper

    def short(G, bound, **kwargs):
        bounds.append(bound)
        return lattice.enumerate_short(G, bound, **kwargs)

    monkeypatch.setattr(lattice, "_lll_core", counted("lll", lattice._lll_core))
    monkeypatch.setattr(
        lattice, "_bareiss", counted("sweeps of the input", lattice._bareiss, lambda rows: rows == G.gram)
    )
    monkeypatch.setattr(roots, "_root_graph", counted("root graphs", roots._root_graph))
    monkeypatch.setattr(roots, "enumerate_short", short)
    code, stdout, _ = run(capsys, "analyze", str(path))
    assert code == 0 and json.loads(stdout)["identification"] == "D8^2[(12)]"
    assert calls == {"lll": 1, "sweeps of the input": 1, "root graphs": 1}
    assert bounds == [2]  # root_system's one pass gives the roots and the units


@pytest.mark.parametrize("section", ["--defect", "--mu"])
def test_analyze_not_unimodular_skips_the_reduction(tmp_path, capsys, monkeypatch, vn, section):
    # definiteness and the determinant come from one sweep; nothing reads
    # an LLL reduction of a definite lattice that is not unimodular
    G = GramMatrix([[2 * a for a in row] for row in vn(16).gram])
    path = tmp_path / "2V16.json"
    path.write_text(json.dumps(G.to_json_dict()))
    calls = []
    monkeypatch.setattr(lattice, "_lll_core", lambda d, lam: calls.append(d))
    code, stdout, err = run(capsys, "analyze", str(path), section)
    assert code == 3 and calls == []
    assert err == f"error: determinant is {2**64}, not 1: defect, mu and standardness need a unimodular lattice\n"
    report = json.loads(stdout)
    assert report["rank"] == 64 and report[section[2:]] == {"status": "not unimodular"}


def test_analyze_standard_certificate(tmp_path, capsys):
    form_file, gram_file = tmp_path / "L.json", tmp_path / "V1.json"
    run(capsys, "build", "--k", "1", "--out", str(form_file))
    run(capsys, "transfer", str(form_file), "--n", "1", "--out", str(gram_file))
    code, stdout, _ = run(capsys, "analyze", str(gram_file), "--standardize")
    assert code == 0
    report = json.loads(stdout)
    assert report["standard"]["is_standard"] is True
    assert report["standard"]["certificate"]["kind"] == "orthonormal_basis"


def test_analyze_rejects_indefinite(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "gram": [[0, 1], [1, 0]]}))
    code, _, _ = run(capsys, "analyze", str(bad))
    assert code == 3


@pytest.mark.parametrize("gram", [[[2]], [[3]], [[2, 1], [1, 2]]])
def test_analyze_not_unimodular(tmp_path, capsys, gram):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"rank": len(gram), "gram": gram}))
    code, stdout, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    report = json.loads(stdout)
    assert "roots" in report and "identification" not in report
    for section in ("defect", "mu", "standard"):
        assert report[section] == {"status": "not unimodular"}
    code, stdout, _ = run(capsys, "analyze", str(path), "--roots")
    assert code == 0 and set(json.loads(stdout)) == {"rank", "determinant", "parity", "roots"}


def test_analyze_budget_exhaustion(tmp_path, capsys):
    # V5 has rank 20, so no identification spends budget after the defect
    form_file, gram_file = tmp_path / "L.json", tmp_path / "V5.json"
    run(capsys, "build", "--k", "1", "--out", str(form_file))
    run(capsys, "transfer", str(form_file), "--n", "5", "--out", str(gram_file))
    nodes = _nodes(characteristic_defect, GramMatrix.from_json_dict(json.loads(gram_file.read_text())))
    code, stdout, _ = run(capsys, "analyze", str(gram_file), "--defect", "--budget", str(nodes - 1))
    assert code == 4
    assert json.loads(stdout)["defect"] == {"status": "skipped(budget)"}
    code, stdout, _ = run(capsys, "analyze", str(gram_file), "--defect", "--budget", str(nodes))
    assert code == 0
    assert json.loads(stdout)["defect"] == {"min_norm": 12, "defect": 1}


def test_analyze_rejects_a_negative_budget(tmp_path, capsys):
    path = tmp_path / "I4.json"
    path.write_text(json.dumps(identity_gram(4).to_json_dict()))
    code, stdout, err = run(capsys, "analyze", str(path), "--budget", "-5")
    assert (code, stdout, err) == (3, "", "error: budget must be >= 0\n")
    # a budget of 0 is valid: the search runs out of nodes at once
    code, stdout, _ = run(capsys, "analyze", str(path), "--defect", "--budget", "0")
    assert code == 4 and json.loads(stdout)["defect"] == {"status": "skipped(budget)"}


def test_analyze_defect_alone_does_not_list(tmp_path, capsys, monkeypatch, vn):
    scrambled = GramMatrix(apply_basis_change(vn(4).gram, random_unimodular(random.Random(5), 16, steps=48)))
    for G in (vn(3), vn(4), vn(5), scrambled):
        listed = min_characteristic(G)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(G.to_json_dict()))
        with monkeypatch.context() as m:
            m.setattr(cli, "min_characteristic", None)  # the listing is never called
            code, stdout, _ = run(capsys, "analyze", str(path), "--defect")
            assert code == 0
            assert json.loads(stdout)["defect"] == {"min_norm": listed.min_norm, "defect": listed.defect}
            # standardness reads the defect route's witness
            code, stdout, _ = run(capsys, "analyze", str(path), "--standardize")
        assert code == 0
        standard = json.loads(stdout)["standard"]
        cert = standard["certificate"]
        assert standard["is_standard"] is False and cert["norm"] == listed.min_norm
        assert defect_certificate_check(G, cert["vector"], listed.defect)
        with monkeypatch.context() as m:
            m.setattr(cli, "root_system", None)  # no bound-2 pass
            for flag, section in (("--defect", "defect"), ("--mu", "mu")):
                code, stdout, _ = run(capsys, "analyze", str(path), flag)
                assert code == 0 and set(json.loads(stdout)) == {"rank", "determinant", "parity", section}
        assert json.loads(stdout)["mu"]["mu"] == listed.mu


def test_analyze_budget_covers_the_whole_call(tmp_path, capsys, vn):
    # scrambled V4: a budget that covers the coset and the root pass one at a
    # time, but not both, leaves the sections after the coset skipped
    G = GramMatrix(apply_basis_change(vn(4).gram, random_unimodular(random.Random(5), 16, steps=48)))
    path = tmp_path / "V4.json"
    path.write_text(json.dumps(G.to_json_dict()))
    coset = _nodes(min_characteristic, G)
    roots_pass = _nodes(enumerate_short, G, 2)
    code, full, _ = run(capsys, "analyze", str(path))
    assert code == 0
    code, stdout, _ = run(capsys, "analyze", str(path), "--budget", str(coset + roots_pass))
    assert code == 0 and stdout == full
    skipped = {"status": "skipped(budget)"}
    for budget in (max(coset, roots_pass), coset + roots_pass - 1, coset):
        code, stdout, _ = run(capsys, "analyze", str(path), "--budget", str(budget))
        report = json.loads(stdout)
        assert code == 4
        assert report["defect"] == json.loads(full)["defect"]
        assert report["roots"] == report["standard"] == skipped
        assert report["identification"] is None
    code, stdout, _ = run(capsys, "analyze", str(path), "--budget", str(coset - 1))
    report = json.loads(stdout)
    assert code == 4 and report["defect"] == report["mu"] == report["roots"] == skipped


@pytest.mark.parametrize("name", ["v3", "v4", "v4-scrambled"])
def test_analyze_json_matches_golden(tmp_path, capsys, vn, name):
    G = {
        "v3": vn(3),
        "v4": vn(4),
        "v4-scrambled": GramMatrix(
            apply_basis_change(vn(4).gram, random_unimodular(random.Random(5), 16, steps=48))
        ),
    }[name]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(G.to_json_dict()))
    code, stdout, _ = run(capsys, "analyze", str(path))
    assert code == 0
    golden = Path(__file__).resolve().parent / "golden" / f"analyze-{name}.json"
    assert stdout.encode("utf-8") == golden.read_bytes()


def test_analyze_determinism(tmp_path, capsys):
    form_file, gram_file = tmp_path / "L.json", tmp_path / "V2.json"
    run(capsys, "build", "--k", "1", "--out", str(form_file))
    run(capsys, "transfer", str(form_file), "--n", "2", "--out", str(gram_file))
    _, out1, _ = run(capsys, "analyze", str(gram_file))
    _, out2, _ = run(capsys, "analyze", str(gram_file))
    assert out1 == out2


def test_verify_paper_max_n(capsys):
    code, stdout, _ = run(capsys, "verify-paper", "--max-n", "3")
    assert code == 0
    assert "FAIL" not in stdout
    skipped = [l for l in stdout.splitlines() if l.startswith("SKIP")]
    assert len(skipped) == 3
    assert all("defect-exact" in l for l in skipped)


def test_verify_paper_runs_the_claim_list_it_finds_at_call_time(capsys, monkeypatch):
    stub = [("stub-claim", "nowhere", 1, lambda: 1)]
    monkeypatch.setattr(cli, "_claim_list", lambda max_n, budget: stub)
    code, stdout, _ = run(capsys, "verify-paper", "--format", "json")
    assert code == 0
    assert json.loads(stdout) == {
        "records": [
            {
                "claim_id": "stub-claim",
                "paper_location": "nowhere",
                "expected": 1,
                "computed": 1,
                "status": "pass",
            }
        ]
    }


def test_verify_paper_json_schema_and_determinism(capsys):
    code, out1, _ = run(capsys, "verify-paper", "--max-n", "2", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "verify-paper", "--max-n", "2", "--format", "json")
    assert out1 == out2
    data = json.loads(out1)
    assert set(data.keys()) == {"records"}
    for rec in data["records"]:
        assert set(rec.keys()) == {"claim_id", "paper_location", "expected", "computed", "status"}
        assert rec["status"] in ("pass", "fail", "skipped(budget)")
        if rec["status"] == "pass":
            assert rec["expected"] == rec["computed"]
    ids = [r["claim_id"] for r in data["records"]]
    for required in ("thm-new-n1-standard", "thm-smalln-v3-mu24", "lemma-specific-a-x5"):
        assert required in ids


def test_verify_paper_tiny_budget_skips_not_fails(capsys):
    code, stdout, _ = run(capsys, "verify-paper", "--max-n", "3", "--budget", "100")
    assert code == 0
    assert "FAIL" not in stdout and "SKIP" in stdout


def _verify_paper_statuses(capsys, *argv):
    code, stdout, _ = run(capsys, "verify-paper", *argv, "--format", "json")
    assert code == 0
    return {r["claim_id"]: r["status"] for r in json.loads(stdout)["records"]}


def test_verify_paper_budget_bounds_the_whole_claim_list(capsys):
    # the searches of the whole list visit 3425 nodes at --max-n 5; one node
    # less skips the last claim that searches, and nothing fails
    statuses = _verify_paper_statuses(capsys, "--max-n", "5", "--budget", "3425")
    assert len(statuses) == 26 and set(statuses.values()) == {"pass"}
    statuses = _verify_paper_statuses(capsys, "--max-n", "5", "--budget", "3424")
    skipped = [cid for cid, status in statuses.items() if status != "pass"]
    assert skipped == ["catalog-gamma4-standard"] and statuses[skipped[0]] == "skipped(budget)"


def test_verify_paper_pays_for_an_exhausted_budget_once(capsys, monkeypatch):
    # at --budget 1960 the 1961-node V4 root pass exhausts the budget; every
    # later claim that needs a new search is skipped at its first node, so the
    # list visits the budget plus one node per skipped claim
    visited = []
    spend = lattice.Budget.spend
    monkeypatch.setattr(lattice.Budget, "spend", lambda budget: visited.append(1) or spend(budget))
    statuses = _verify_paper_statuses(capsys, "--max-n", "5", "--budget", "1960")
    skipped = [cid for cid, status in statuses.items() if status == "skipped(budget)"]
    assert skipped[:2] == ["thm-smalln-v4-roots", "thm-smalln-v4-identify"]
    assert "fail" not in statuses.values() and len(visited) == 1960 + len(skipped)


def test_verify_paper_rejects_a_negative_max_n(capsys):
    code, stdout, err = run(capsys, "verify-paper", "--max-n", "-3")
    assert (code, stdout, err) == (3, "", "error: max-n must be >= 0\n")
    # 0 is valid: every enumeration claim is skipped, the rest run
    code, stdout, _ = run(capsys, "verify-paper", "--max-n", "0")
    assert code == 0 and "summary:" in stdout and " 0 failed" in stdout


def test_verify_paper_rejects_a_negative_budget(capsys):
    code, stdout, err = run(capsys, "verify-paper", "--budget", "-1")
    assert (code, stdout, err) == (3, "", "error: budget must be >= 0\n")
    code, stdout, _ = run(capsys, "verify-paper", "--max-n", "3", "--budget", "0")
    assert code == 0 and "FAIL" not in stdout and "SKIP" in stdout


def test_verify_paper_tampered_input_fails(capsys, monkeypatch):
    real_vn = claims._vn

    def tampered(n):
        G = real_vn(n)
        rows = [list(r) for r in G.gram]
        rows[0][0] += 2
        return GramMatrix(rows)

    monkeypatch.setattr(claims, "_vn", tampered)
    code, stdout, _ = run(capsys, "verify-paper", "--max-n", "3")
    assert code == 1
    assert "FAIL" in stdout


def test_verify_paper_tampered_cyclic_form_fails(capsys, monkeypatch):
    # +2 on the constant coefficient of entry (0, 0) keeps every cyclic form
    # hermitian; the dense transfers stay untampered, so each failure below
    # comes from a witness checked on the cyclic form
    real_cyclic = claims._cyclic

    def tampered(b, n):
        rows = [list(r) for r in real_cyclic(b, n)]
        c = rows[0][0]
        rows[0][0] = (c[0] + 2,) + c[1:]
        return tuple(map(tuple, rows))

    monkeypatch.setattr(claims, "_cyclic", tampered)
    monkeypatch.setattr(claims, "_vn", lambda n: transfer(real_cyclic(1, n)))
    code, stdout, _ = run(capsys, "verify-paper", "--max-n", "3", "--format", "json")
    assert code == 1
    records = {r["claim_id"]: r for r in json.loads(stdout)["records"]}
    assert records["thm-new-nonstandard-range"]["computed"] == {
        "moduli": "failed at 3",
        "all_nonstandard": False,
    }
    # the norm-element witness is zero on the first block, so it cannot see
    # the change; every other witness on a cyclic form does
    failed = {k for k, r in records.items() if r["status"] == "fail"}
    assert failed == {
        "thm-new-nonstandard-range",
        "defect-bound-range",
        "lemma-specific-a-x1",
        "lemma-specific-a-x5",
        "lemma-specific-a-x21",
        "distinguishing-powers",
    }


def test_verify_paper_forms_dense_transfers_only_up_to_max_n(capsys, monkeypatch):
    moduli = []

    def spy(Gn):
        moduli.append(len(Gn[0][0]))
        return transfer(Gn)

    monkeypatch.setattr(claims, "transfer", spy)
    # uncached, so every dense transfer of this run passes the spy
    monkeypatch.setattr(claims, "_vn", claims._vn.__wrapped__)
    code, _, _ = run(capsys, "verify-paper", "--max-n", "5")
    assert code == 0
    assert moduli and max(moduli) <= 5


def test_verify_paper_builds_each_multiplier_form_once(capsys, monkeypatch):
    multipliers = []

    def spy(a):
        multipliers.append(a)
        return build_form(a)

    # claims builds through its own import, the congruence check and
    # build_form_power through the forms module's
    monkeypatch.setattr(claims, "build_form", spy)
    monkeypatch.setattr(forms, "build_form", spy)
    # fresh caches, so every form this run needs passes the spy
    for name, cached in list(vars(claims).items()):
        if hasattr(cached, "cache_clear"):
            monkeypatch.setattr(claims, name, lru_cache(maxsize=None)(cached.__wrapped__))
    code, _, _ = run(capsys, "verify-paper", "--max-n", "5")
    assert code == 0
    # x^b + x^-b is built once by _form and once by the congruence check,
    # b = 1, 5, 21, and the congruence check builds the form at 0 as well
    want = [sym_power(b) for b in (1, 5, 21)] * 2 + [LaurentPoly.zero()]
    assert sorted(multipliers, key=repr) == sorted(want, key=repr)


@pytest.mark.parametrize("max_n", ["3", "5"])
def test_verify_paper_json_matches_golden(capsys, max_n):
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden" / f"verify-paper-max-n-{max_n}.json"
    code, stdout, _ = run(capsys, "verify-paper", "--max-n", max_n, "--format", "json")
    assert code == 0
    assert stdout.encode("utf-8") == golden.read_bytes()


def test_traced_verify_paper_times_every_claim_that_runs(tmp_path):
    # the benchmark's traced CLI wraps the claim runners of cli._claim_list;
    # the claims module is imported only when verify-paper runs, after the
    # library layers are wrapped, and its calls must still be traced
    root = Path(__file__).resolve().parents[1]
    spans_file = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "bench")])}
    argv = ["verify-paper", "--max-n", "3", "--format", "json"]
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "traced_cli.py"), str(spans_file), *argv],
        env=env, capture_output=True, check=True,
    )
    assert out.stdout == (root / "bench" / "golden" / "verify-paper-max-n-3.json").read_bytes()
    spans = json.loads(spans_file.read_text())
    names = [span[0] for span in spans]
    ran = [r["claim_id"] for r in json.loads(out.stdout)["records"] if r["status"] != "skipped(budget)"]
    assert ran and all(f"cli.claim.{cid}" in names for cid in ran)
    nested = {name for name, _, _, parent, _ in spans if parent >= 0 and names[parent].startswith("cli.claim.")}
    assert {"charvec.min_characteristic", "roots.root_system", "forms.transfer"} <= nested
