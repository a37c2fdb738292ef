"""Command line front end.

Subcommands:
  build        construct the rank-4 hermitian form for a multiplier a(x)
  transfer     reduce a form mod x^n - 1 and restrict scalars to an integer Gram
  analyze      defect / mu / roots / standardness of a Gram matrix file
  verify-paper run the claim list of `hermlat.claims` and report pass/fail

Exit codes: 0 success, 1 verification failure, 2 I/O or parse error,
3 domain precondition violated, 4 node budget exhausted.

Two runs with the same flags write identical bytes to stdout; timing
diagnostics go to stderr only.

`transfer` writes its Gram file straight from the reduced form: each
coefficient is printed once and placed by the rotation rule of
`forms._transfer_rows`, so no dense Gram is built, and the form file's
hermitian check on load is the only symmetry check.  The claims module is
imported only when `verify-paper` runs, so the other commands do not load
it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence, Tuple

from hermlat.charvec import characteristic_defect, is_standard, min_characteristic
from hermlat.forms import (
    HermitianForm,
    _transfer_rows,
    build_form,
    build_form_power,
    form_det,
    power_exceeds,
    reduce_form,
    transfer_determinant,
)
from hermlat.lattice import DEFAULT_NODE_BUDGET, Budget, BudgetExceeded, GramMatrix
from hermlat.ring import format_laurent, parse_laurent
from hermlat.roots import identify, root_system

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


def _gram_json(Gn: Sequence[Sequence[Tuple[int, ...]]]) -> str:
    """`_dump_json(transfer(Gn).to_json_dict())` byte for byte, for the
    reduction Gn = `reduce_form(G, n)`, without forming the Gram.  Each
    coefficient is printed once, as json prints an int (`int.__repr__`);
    `_transfer_rows` places the printed coefficients, and each row is one
    join instead of json's pure-Python indent encoder."""
    printed = [[list(map(int.__repr__, cs)) for cs in row] for row in Gn]
    rows = "\n    ],\n    [\n      ".join(",\n      ".join(row) for row in _transfer_rows(printed))
    rank = len(Gn) * len(Gn[0][0])
    return f'{{\n  "gram": [\n    [\n      {rows}\n    ]\n  ],\n  "rank": {rank}\n}}\n'


def _digit_limit() -> int:
    """The most decimal digits Python converts an int to (0: no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextmanager
def _printable() -> Iterator[None]:
    """Formatting an int past `_digit_limit()` raises ValueError; exit 3 instead."""
    try:
        yield
    except ValueError:
        raise CLIError(
            EXIT_DOMAIN, f"the result holds an integer of more than {_digit_limit()} digits"
        )


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CLIError(EXIT_IO, f"cannot write {path}: {exc}")


def _load(path: str, cls: Any, what: str) -> Any:
    """The `cls.from_json_dict` of the JSON file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CLIError(EXIT_IO, f"cannot read {path}: {exc}")
    try:
        return cls.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError(EXIT_IO, f"{path} is not a valid {what} file: {exc}")


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
        limit = _digit_limit()
        if limit and power_exceeds(args.k, limit):
            raise CLIError(
                EXIT_DOMAIN, f"power index {args.k} gives exponents of more than {limit} digits"
            )
        form = build_form_power(args.k)
    det = form_det(form)
    with _printable():
        text = _dump_json(form.to_json_dict())
        # the constructor validates hermitian symmetry, so reaching here means true
        summary = f"rank: {form.size}\ndet: {format_laurent(det)}\nhermitian: true\n"
    _write_file(args.out, text)
    sys.stdout.write(summary)
    return EXIT_OK


# -- transfer ------------------------------------------------------------------


def _cmd_transfer(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise CLIError(EXIT_DOMAIN, "modulus must be >= 1")
    # loading checks that the form is hermitian, so the Gram is symmetric
    form = _load(args.form_file, HermitianForm, "form")
    try:
        Gn = reduce_form(form, args.n)
        det = transfer_determinant(form, args.n)
        with _printable():
            text = _gram_json(Gn)
            summary = f"rank: {len(Gn) * args.n}\ndeterminant: {det}\n"
    except (MemoryError, OverflowError):
        # no list of n coefficients fits, so no file is written
        raise CLIError(EXIT_DOMAIN, f"modulus {args.n} is too large to reduce the form in memory")
    _write_file(args.out, text)
    sys.stdout.write(summary)
    return EXIT_OK


# -- analyze -------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.budget < 0:
        raise CLIError(EXIT_DOMAIN, "budget must be >= 0")
    G = _load(args.gram_file, GramMatrix, "Gram")
    if not G.is_positive_definite():
        raise CLIError(EXIT_DOMAIN, "Gram matrix is not positive definite")
    flags = (args.defect, args.mu, args.roots, args.standardize)
    every = not any(flags)
    want_defect, want_mu, want_roots, want_standard = (every or flag for flag in flags)
    want_char = want_defect or want_mu or want_standard
    budget = Budget(args.budget)  # one for the whole call: root_system spends what is left
    skipped = []  # the searches that found the budget spent

    def search(run: Any) -> Any:
        """run(G, budget), or None after recording that the budget ran out."""
        try:
            return run(G, budget)
        except BudgetExceeded:
            skipped.append(run)
            return None

    det = G.determinant()
    unimodular = det == 1
    report: dict = {"rank": G.rank, "determinant": det, "parity": "odd" if G.is_odd() else "even"}
    missing = {"status": "skipped(budget)" if unimodular else "not unimodular"}
    # the defect and standardness need no minimizer list: take the search's
    # first minimizer; mu lists the rest of the same pass
    char_search = min_characteristic if want_mu else characteristic_defect
    char = search(char_search) if unimodular and want_char else None
    if want_defect:
        report["defect"] = missing if char is None else {
            "min_norm": char.min_norm,
            "defect": char.defect,
        }
    if want_mu:
        report["mu"] = missing if char is None else {
            "mu": char.mu,
            "minimizers": [list(v) for v in char.minimizers],
        }
    # one bound-2 pass gives the roots, the unit pairs and the identification
    rs = search(root_system) if want_roots or (want_standard and char is not None) else None
    if want_standard:
        if char is None or rs is None:  # with char, the lattice is unimodular
            report["standard"] = missing
        else:
            std, cert = is_standard(G, char, rs.units)
            report["standard"] = {"is_standard": std, "certificate": cert}
    if want_roots:
        report["roots"] = {"status": "skipped(budget)"} if rs is None else {
            "components": rs.to_json_dict()["components"],
            "total_roots": rs.total_roots,
            "spanning_rank": rs.spanning_rank,
        }
    if (want_roots or want_standard) and unimodular and G.rank <= 16:
        report["identification"] = None if rs is None else identify(G, rs)
    with _printable():
        sys.stdout.write(_dump_json(report))
    if want_char and not unimodular:
        raise CLIError(
            EXIT_DOMAIN,
            f"determinant is {det}, not 1: defect, mu and standardness need a unimodular lattice",
        )
    return EXIT_BUDGET if skipped else EXIT_OK


# -- verify-paper --------------------------------------------------------------


def _claim_list(max_n: int, budget: int) -> list:
    """`claims.claim_list`, imported on the first call, so that the other
    commands never load the claims module.  `_cmd_verify_paper` looks this
    name up when it runs, so a caller may replace it."""
    from hermlat.claims import claim_list

    return claim_list(max_n, budget)


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    if args.budget < 0:
        raise CLIError(EXIT_DOMAIN, "budget must be >= 0")
    if args.max_n < 0:
        raise CLIError(EXIT_DOMAIN, "max-n must be >= 0")
    records = []
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
        print(f"# {claim_id}: {time.monotonic() - t0:.3f}s [{status}]", file=sys.stderr)
        records.append(
            {
                "claim_id": claim_id,
                "paper_location": location,
                "expected": expected,
                "computed": computed,
                "status": status,
            }
        )

    n_pass = sum(1 for r in records if r["status"] == "pass")
    n_fail = sum(1 for r in records if r["status"] == "fail")
    n_skip = len(records) - n_pass - n_fail
    if args.format == "json":
        sys.stdout.write(_dump_json({"records": records}))
    else:
        width = max(len(r["claim_id"]) for r in records)
        for r in records:
            tag = {"pass": "PASS", "fail": "FAIL"}.get(r["status"], "SKIP")
            line = f"{tag}  {r['claim_id'].ljust(width)}"
            if r["status"] == "fail":
                line += f"  expected={r['expected']!r} computed={r['computed']!r}"
            elif r["status"] != "pass":
                line += f"  ({r['computed']})"
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
                      help="largest modulus for exact-defect enumeration, >= 0 (default 5)")
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
