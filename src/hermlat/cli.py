"""Command line front end.

Subcommands:
  build        construct the rank-4 hermitian form for a multiplier a(x)
  transfer     reduce a form mod x^n - 1 and restrict scalars to an integer Gram
  analyze      defect / mu / roots / standardness of a Gram matrix file
  verify-paper run the full reproduction claim list and report pass/fail

Exit codes: 0 success, 1 verification failure, 2 I/O or parse error,
3 domain precondition violated, 4 node budget exhausted.

Two runs with the same flags write identical bytes to stdout; timing
diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, List, Optional, Sequence, Tuple

from hermlat.charvec import (
    CharReport,
    char_witness,
    check_orthonormal_certificate,
    defect_certificate_check,
    floor3_multiplier,
    is_characteristic,
    is_standard,
    min_characteristic,
    specific_criterion,
    wa_norm,
    witness_vector,
)
from hermlat.forms import (
    HermitianForm,
    aug_form,
    b_sequence,
    build_form,
    build_form_power,
    form_det,
    rational_congruence_check,
    reduce_form,
    transfer,
    transfer_determinant,
)
from hermlat.lattice import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    GramMatrix,
    canonical_rep,
    direct_sum,
    inner,
    norm,
)
from hermlat.ring import LaurentPoly, format_laurent, parse_laurent, sym_power
from hermlat.roots import (
    check_dynkin,
    gamma_gram,
    identify,
    identity_gram,
    root_system,
    v4_root_batches,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4


class CLIError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CLIError(EXIT_IO, f"cannot read {path}: {exc}")


def _write_json_file(path: str, obj: Any) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dump_json(obj))
    except OSError as exc:
        raise CLIError(EXIT_IO, f"cannot write {path}: {exc}")


def _load_form(path: str) -> HermitianForm:
    data = _load_json_file(path)
    try:
        return HermitianForm.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError(EXIT_IO, f"{path} is not a valid form file: {exc}")


def _load_gram(path: str) -> GramMatrix:
    data = _load_json_file(path)
    try:
        return GramMatrix.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError(EXIT_IO, f"{path} is not a valid Gram file: {exc}")


# -- build ---------------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    if args.a is not None:
        try:
            a = parse_laurent(args.a)
        except ValueError as exc:
            raise CLIError(EXIT_IO, f"cannot parse multiplier: {exc}")
        if not a.is_self_conjugate():
            raise CLIError(
                EXIT_DOMAIN, "multiplier must be self-conjugate (a(x) = a(1/x))"
            )
        form = build_form(a)
    else:
        if args.k < 1:
            raise CLIError(EXIT_DOMAIN, "power index must be >= 1")
        form = build_form_power(args.k)
    _write_json_file(args.out, form.to_json_dict())
    # the constructor validates hermitian symmetry, so reaching here means true
    print(f"rank: {form.size}")
    print(f"det: {format_laurent(form_det(form))}")
    print("hermitian: true")
    return EXIT_OK


# -- transfer ------------------------------------------------------------------


def _cmd_transfer(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise CLIError(EXIT_DOMAIN, "modulus must be >= 1")
    Gn = reduce_form(_load_form(args.form_file), args.n)
    G = transfer(Gn)
    _write_json_file(args.out, G.to_json_dict())
    print(f"rank: {G.rank}")
    print(f"determinant: {transfer_determinant(Gn)}")
    return EXIT_OK


# -- analyze -------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    G = _load_gram(args.gram_file)
    if not G.is_positive_definite():
        raise CLIError(EXIT_DOMAIN, "Gram matrix is not positive definite")
    want_all = not (args.defect or args.mu or args.roots or args.standardize)
    budget = args.budget
    skipped = False
    det = G.determinant()
    unimodular = det == 1
    report: dict = {
        "rank": G.rank,
        "determinant": det,
        "parity": "odd" if G.is_odd() else "even",
    }

    want_char = want_all or args.defect or args.mu or args.standardize
    missing = {"status": "skipped(budget)" if unimodular else "not unimodular"}
    char = None
    if unimodular and want_char:
        try:
            char = min_characteristic(G, max_nodes=budget)
        except BudgetExceeded:
            skipped = True
    if want_all or args.defect:
        report["defect"] = (
            {"min_norm": char.min_norm, "defect": char.defect}
            if char is not None
            else missing
        )
    if want_all or args.mu:
        report["mu"] = (
            {"mu": char.mu, "minimizers": [list(v) for v in char.minimizers]}
            if char is not None
            else missing
        )
    want_standard = want_all or args.standardize
    identifiable = G.rank <= 16 and unimodular
    # one bound-2 pass gives the roots, the identification and the unit pairs
    rs = None
    if want_all or args.roots or identifiable or (want_standard and char is not None):
        try:
            rs = root_system(G, max_nodes=budget)
        except BudgetExceeded:
            skipped = True
    if want_standard:
        if char is None:
            report["standard"] = missing
        elif rs is None:
            report["standard"] = {"status": "skipped(budget)"}
        else:
            std, cert = is_standard(G, char, rs.units)
            report["standard"] = {"is_standard": std, "certificate": cert}
    if want_all or args.roots:
        report["roots"] = {"status": "skipped(budget)"} if rs is None else {
            "components": rs.to_json_dict()["components"],
            "total_roots": rs.total_roots,
            "spanning_rank": rs.spanning_rank,
        }
    if identifiable:
        report["identification"] = None if rs is None else rs.lattice_name(G.rank)
    sys.stdout.write(_dump_json(report))
    if want_char and not unimodular:
        raise CLIError(
            EXIT_DOMAIN,
            f"determinant is {det}, not 1: defect, mu and standardness need a unimodular lattice",
        )
    return EXIT_BUDGET if skipped else EXIT_OK


# -- verify-paper --------------------------------------------------------------


@dataclass(frozen=True)
class VerificationRecord:
    claim_id: str
    paper_location: str
    expected: Any
    computed: Any
    status: str  # pass | fail | skipped(budget)
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "paper_location": self.paper_location,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
        }


@lru_cache(maxsize=None)
def _vn(n: int) -> GramMatrix:
    """Transfer of the first-power form at modulus n (rank 4n)."""
    return transfer(reduce_form(build_form_power(1), n))


def _v3_expected_minimizers() -> frozenset:
    # the twelve +/- classes w - 2 x^i e with e one of e1, e2, e1+e4, e2+e3
    w = char_witness(3)
    combos = ((0,), (1,), (0, 3), (1, 2))
    out = set()
    for i in range(3):
        for mods in combos:
            v = list(w)
            for mmod in mods:
                v[mmod * 3 + i] -= 2
            out.add(canonical_rep(v))
    return frozenset(out)


@lru_cache(maxsize=None)
def _char(G: GramMatrix, budget: int) -> CharReport:
    """G's `min_characteristic`, enumerated once per lattice and budget."""
    return min_characteristic(G, max_nodes=budget)


def _run_standard(G: GramMatrix, budget: int) -> dict:
    std, cert = is_standard(G, _char(G, budget), root_system(G, max_nodes=budget).units)
    return {"standard": std, "certificate_ok": std and check_orthonormal_certificate(G, cert)}


def _run_nonstandard_range() -> dict:
    for n in range(3, 31):
        G = _vn(n)
        w1 = witness_vector(n, (1,))
        if norm(G, w1) != 4 * n - 8 or not defect_certificate_check(G, w1, 1):
            return {"moduli": f"failed at {n}", "all_nonstandard": False}
    return {"moduli": "3..30", "all_nonstandard": True}


def _run_char_norm_range() -> dict:
    for n in range(1, 31):
        G = _vn(n)
        w = char_witness(n)
        if not is_characteristic(G, w) or norm(G, w) != 4 * n:
            return {"moduli": f"failed at {n}", "all_match": False}
    return {"moduli": "1..30", "all_match": True}


def _run_defect_bound_range() -> dict:
    for n in range(6, 31):
        G = _vn(n)
        a = floor3_multiplier(n)
        w0 = witness_vector(n, a)
        target = 4 * n - 8 * (n // 3)
        if norm(G, w0) != target or wa_norm(n, a) != target:
            return {"moduli": f"norm mismatch at {n}", "all_valid": False}
        if not defect_certificate_check(G, w0, n // 3):
            return {"moduli": f"certificate failed at {n}", "all_valid": False}
    return {"moduli": "6..30", "all_valid": True}


def _run_v3_minimizers(budget: int) -> dict:
    rep = _char(_vn(3), budget)
    match = frozenset(rep.minimizers) == _v3_expected_minimizers()
    return {"min_norm": rep.min_norm, "mu": rep.mu, "minimizers_match": match}


def _run_v4_dynkin() -> dict:
    G = _vn(4)
    b1, b2 = v4_root_batches()
    ortho = all(inner(G, u, v) == 0 for u in b1 for v in b2)
    return {
        "batch1_d8": check_dynkin(G, b1, "D", 8),
        "batch2_d8": check_dynkin(G, b2, "D", 8),
        "orthogonal": ortho,
    }


def _run_rational_congruence() -> dict:
    values = (sym_power(1), LaurentPoly.zero(), sym_power(5), sym_power(21))
    ok = all(rational_congruence_check(a) for a in values)
    return {"a_values": len(values), "all_pass": ok}


def _run_specific(b: int) -> dict:
    # lattice varies with the multiplier; the witness is always w - 2 e_1
    a = sym_power(b)
    holds, m, witness_norm = specific_criterion(a)
    if not holds or m != b:
        return {"holds": holds, "m": m, "norms_match": False}
    ok = True
    for n in (4 * b + 1, 4 * b + 2):
        G = transfer(reduce_form(build_form(a), n))
        w1 = witness_vector(n, (1,))
        direct = norm(G, w1)
        predicted = witness_norm(n)
        if direct != predicted or not defect_certificate_check(G, w1, (4 * n - predicted) // 8):
            ok = False
    return {"holds": holds, "m": m, "norms_match": ok}


def _run_distinguishing() -> dict:
    for k in (1, 2, 3):
        bk = b_sequence(k)
        if not reduce_form(build_form_power(k), bk).is_constant():
            return {"checked": f"power {k} not constant at its modulus", "all": False}
        for j in range(1, k):
            a = sym_power(b_sequence(j))
            G = transfer(reduce_form(build_form_power(j), bk))
            w = witness_vector(bk, (1,))
            nw = norm(G, w)
            _, _, witness_norm = specific_criterion(a)
            if witness_norm is None or nw != witness_norm(bk):
                return {"checked": f"norm mismatch at j={j}, k={k}", "all": False}
            if nw >= 4 * bk or (4 * bk - nw) % 8:
                return {"checked": f"witness too large at j={j}, k={k}", "all": False}
            if not defect_certificate_check(G, w, (4 * bk - nw) // 8):
                return {"checked": f"certificate failed at j={j}, k={k}", "all": False}
    return {"checked": "k=1..3 with all j<k", "all": True}


def _claim_list(max_n: int, budget: int) -> List[Tuple[str, str, Any, Optional[Callable[[], Any]]]]:
    """(claim_id, paper_location, expected, run) tuples; run=None means the
    record is skipped under the current --max-n."""

    def defect_runner(n: int) -> Optional[Callable[[], Any]]:
        if n > max_n:
            return None
        return lambda: _char(_vn(n), budget).defect

    aug_expected = [[7, 6, 3, 2], [6, 7, 2, 3], [3, 2, 2, 0], [2, 3, 0, 2]]
    claims: List[Tuple[str, str, Any, Optional[Callable[[], Any]]]] = [
        (
            "construction-aug-matrix",
            "augmentation of the first-power form",
            aug_expected,
            lambda: [list(row) for row in aug_form(build_form_power(1)).gram],
        ),
        (
            "construction-det-one",
            "determinant of the first-power form",
            "1",
            lambda: format_laurent(form_det(build_form_power(1))),
        ),
        (
            "thm-new-n1-standard",
            "standardness of the transfer at modulus 1",
            {"standard": True, "certificate_ok": True},
            lambda: _run_standard(_vn(1), budget),
        ),
        (
            "thm-new-n2-standard",
            "standardness of the transfer at modulus 2",
            {"standard": True, "certificate_ok": True},
            lambda: _run_standard(_vn(2), budget),
        ),
        (
            "thm-new-nonstandard-range",
            "norm 4n-8 characteristic witnesses at moduli 3..30",
            {"moduli": "3..30", "all_nonstandard": True},
            _run_nonstandard_range,
        ),
        (
            "lemma-char-norm-range",
            "norm-element witness is characteristic of norm 4n at moduli 1..30",
            {"moduli": "1..30", "all_match": True},
            _run_char_norm_range,
        ),
        (
            "defect-exact-n3",
            "enumerated defect of the modulus-3 transfer",
            1,
            defect_runner(3),
        ),
        (
            "defect-exact-n4",
            "enumerated defect of the modulus-4 transfer",
            1,
            defect_runner(4),
        ),
        (
            "defect-exact-n5-bound",
            "defect bounds at modulus 5",
            {"lower": 1, "upper": 2, "within": True},
            None
            if max_n < 5
            else (
                lambda: {
                    "lower": 1,
                    "upper": 2,
                    "within": 1 <= _char(_vn(5), budget).defect <= 2,
                }
            ),
        ),
        (
            "defect-exact-n5-value",
            "enumerated defect value at modulus 5",
            1,
            defect_runner(5),
        ),
        (
            "defect-bound-range",
            "spaced-power witnesses give defect >= floor(n/3) at moduli 6..30",
            {"moduli": "6..30", "all_valid": True},
            _run_defect_bound_range,
        ),
        (
            "thm-smalln-v3-mu24",
            "minimal characteristic vectors of the modulus-3 transfer",
            {"min_norm": 4, "mu": 24, "minimizers_match": True},
            lambda: _run_v3_minimizers(budget),
        ),
        (
            "thm-smalln-v3-identify",
            "fingerprint identification of the modulus-3 transfer",
            "Gamma12",
            lambda: identify(_vn(3), max_nodes=budget),
        ),
        (
            "mu-e8-plus-i4",
            "minimal characteristic count of the rank-8 even lattice plus I4",
            16,
            lambda: _char(direct_sum(gamma_gram(8), identity_gram(4)), budget).mu,
        ),
        (
            "thm-smalln-v4-dynkin",
            "two orthogonal D8 diagrams inside the modulus-4 transfer",
            {"batch1_d8": True, "batch2_d8": True, "orthogonal": True},
            _run_v4_dynkin,
        ),
        (
            "thm-smalln-v4-roots",
            "root decomposition of the modulus-4 transfer",
            [
                {"type": "D", "rank": 8, "roots": 112},
                {"type": "D", "rank": 8, "roots": 112},
            ],
            lambda: root_system(_vn(4), max_nodes=budget).to_json_dict()["components"],
        ),
        (
            "thm-smalln-v4-identify",
            "fingerprint identification of the modulus-4 transfer",
            "D8^2[(12)]",
            lambda: identify(_vn(4), max_nodes=budget),
        ),
        (
            "catalog-defect-floor",
            "defect of the half-integer overlattices of ranks 4,8,12,16",
            [0, 1, 1, 2],
            lambda: [
                _char(gamma_gram(4 * m), budget).defect for m in (1, 2, 3, 4)
            ],
        ),
        (
            "catalog-mu-gamma12",
            "minimal characteristic count of the rank-12 overlattice",
            24,
            lambda: _char(gamma_gram(12), budget).mu,
        ),
        (
            "catalog-mu-gamma8",
            "minimal characteristic count of the rank-8 overlattice",
            1,
            lambda: _char(gamma_gram(8), budget).mu,
        ),
        (
            "catalog-gamma4-standard",
            "the rank-4 overlattice is standard",
            {"standard": True, "certificate_ok": True},
            lambda: _run_standard(gamma_gram(4), budget),
        ),
        (
            "lemma-rational-congruence",
            "rational block diagonalization of the rank-4 form",
            {"a_values": 4, "all_pass": True},
            _run_rational_congruence,
        ),
        (
            "lemma-specific-a-x1",
            "sum-of-squares witness for the first power multiplier",
            {"holds": True, "m": 1, "norms_match": True},
            lambda: _run_specific(1),
        ),
        (
            "lemma-specific-a-x5",
            "sum-of-squares witness for the fifth power multiplier",
            {"holds": True, "m": 5, "norms_match": True},
            lambda: _run_specific(5),
        ),
        (
            "lemma-specific-a-x21",
            "sum-of-squares witness for the twenty-first power multiplier",
            {"holds": True, "m": 21, "norms_match": True},
            lambda: _run_specific(21),
        ),
        (
            "distinguishing-powers",
            "lower powers stay nonstandard at the higher modulus while the matching power extends from the integers",
            {"checked": "k=1..3 with all j<k", "all": True},
            _run_distinguishing,
        ),
    ]
    return claims


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    records: List[VerificationRecord] = []
    for claim_id, location, expected, run in _claim_list(args.max_n, args.budget):
        t0 = time.monotonic()
        if run is None:
            status, computed = "skipped(budget)", "not run (modulus above --max-n)"
        else:
            try:
                computed = run()
                status = "pass" if computed == expected else "fail"
            except BudgetExceeded:
                computed = "not run (node budget exhausted)"
                status = "skipped(budget)"
            except Exception as exc:  # a crashed claim is a failed claim
                computed = f"error: {type(exc).__name__}: {exc}"
                status = "fail"
        elapsed = time.monotonic() - t0
        records.append(
            VerificationRecord(claim_id, location, expected, computed, status, elapsed)
        )
        print(f"# {claim_id}: {elapsed:.3f}s [{status}]", file=sys.stderr)

    n_pass = sum(1 for r in records if r.status == "pass")
    n_fail = sum(1 for r in records if r.status == "fail")
    n_skip = len(records) - n_pass - n_fail
    if args.format == "json":
        sys.stdout.write(_dump_json({"records": [r.to_json_dict() for r in records]}))
    else:
        width = max(len(r.claim_id) for r in records)
        for r in records:
            tag = {"pass": "PASS", "fail": "FAIL"}.get(r.status, "SKIP")
            line = f"{tag}  {r.claim_id.ljust(width)}"
            if r.status == "fail":
                line += f"  expected={r.expected!r} computed={r.computed!r}"
            elif r.status != "pass":
                line += f"  ({r.computed})"
            print(line)
        print(f"summary: {n_pass} passed, {n_fail} failed, {n_skip} skipped")
    return EXIT_VERIFY if n_fail else EXIT_OK


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermlat",
        description="exact hermitian forms over the Laurent ring, transfers to "
        "integer lattices, and characteristic-vector invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct the rank-4 form")
    grp = p_build.add_mutually_exclusive_group(required=True)
    grp.add_argument("--a", help="self-conjugate Laurent multiplier, e.g. \"x^1 + x^-1\"")
    grp.add_argument("--k", type=int, help="power index into the b-sequence family")
    p_build.add_argument("--out", required=True, help="output form file (JSON)")
    p_build.set_defaults(func=_cmd_build)

    p_tr = sub.add_parser("transfer", help="restrict scalars to an integer Gram matrix")
    p_tr.add_argument("form_file", help="form file written by build")
    p_tr.add_argument("--n", type=int, required=True, help="cyclic modulus, n >= 1")
    p_tr.add_argument("--out", required=True, help="output Gram file (JSON)")
    p_tr.set_defaults(func=_cmd_transfer)

    p_an = sub.add_parser("analyze", help="lattice invariants of a Gram file")
    p_an.add_argument("gram_file", help="Gram file written by transfer")
    p_an.add_argument("--defect", action="store_true", help="minimal characteristic norm and defect")
    p_an.add_argument("--mu", action="store_true", help="count and list the minimizers")
    p_an.add_argument("--roots", action="store_true", help="root system decomposition")
    p_an.add_argument("--standardize", action="store_true", help="standardness with certificate")
    p_an.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="enumeration node budget")
    p_an.set_defaults(func=_cmd_analyze)

    p_vp = sub.add_parser("verify-paper", help="run the reproduction claim list")
    p_vp.add_argument("--max-n", dest="max_n", type=int, default=5,
                      help="largest modulus for exact-defect enumeration (default 5)")
    p_vp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="enumeration node budget")
    p_vp.add_argument("--format", choices=("text", "json"), default="text")
    p_vp.set_defaults(func=_cmd_verify_paper)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which is our parse-error slot
        return exc.code if isinstance(exc.code, int) else EXIT_IO
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
