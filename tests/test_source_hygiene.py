"""Static checks over the package sources: unused imports, parameters and
private definitions, bool mode flags, rationals and dataclasses, the one
integer test, the one node budget per command, the one ring type and the
one form type with reductions as plain coefficient tuples, the one
transfer-witness norm, which modules import the form layer, plus what
importing the CLI loads, whether every hermlat name the benchmark reads
exists, and whether every test oracle is read."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import hermlat
from hermlat import forms

MODULES = sorted(Path(hermlat.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module):
    """(bound name, line) for every import except `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    # __init__.py imports names to re-export them
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree)
            if name not in used
        ]
    assert unused == []


def _importers(module: str, paths=MODULES):
    """(file, line) of every import of the dotted module, or of a module
    inside it, in the given package files."""
    offenders = []
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == module or m.startswith(module + ".") for m in modules):
                offenders.append(f"{path.name}:{node.lineno}")
    return offenders


def test_no_module_imports_fractions():
    assert _importers("fractions") == []


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, dis, ast and tokenize at start-up
    assert _importers("dataclasses") == []


def test_generic_lattice_modules_do_not_import_the_form_layer():
    # roots builds on lattice alone, and the V_n-specific vectors and the
    # cyclic-form witness test live in claims, so no generic module reaches
    # up into forms
    package = Path(hermlat.__file__).parent
    roots = [package / "roots.py"]
    generic = [package / f"{name}.py" for name in ("ring", "lattice", "charvec", "roots")]
    outside_lattice = [
        line for line in _importers("hermlat", roots) if line not in _importers("hermlat.lattice", roots)
    ]
    assert outside_lattice + _importers("hermlat.forms", generic) == []


def test_bench_imports_resolve():
    # the benchmark imports hermlat names by module; a name that moves or
    # disappears must fail here, not only when the benchmark runs
    for path in MODULES:
        if path.name != "__init__.py":
            importlib.import_module(f"hermlat.{path.stem}")
    bench = sorted((Path(hermlat.__file__).parents[2] / "bench").glob("*.py"))
    missing = []
    for path in bench:
        tree = _tree(path)
        bound = {}  # name -> the hermlat module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hermlat":
                for alias in node.names:
                    value = getattr(sys.modules.get(node.module), alias.name, None)
                    if value is None:
                        missing.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
                    elif isinstance(value, types.ModuleType):
                        bound[alias.asname or alias.name] = value
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "hermlat" and alias.asname:
                        bound[alias.asname] = sys.modules.get(alias.name)
        missing += [
            f"{path.name}:{n.lineno} {n.value.id}.{n.attr}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id in bound
            and not hasattr(bound[n.value.id], n.attr)
        ]
    assert missing == []


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # -S: no site hooks, so only the package's own imports count
    code = "import sys, hermlat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(hermlat.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_cli_import_leaves_claims_unloaded():
    # build, transfer and analyze never load the claims module; verify-paper
    # imports it when it runs
    code = (
        "import sys, hermlat.cli as cli; loaded = 'hermlat.claims' in sys.modules; "
        "code = cli.main(['verify-paper', '--max-n', '0']); print(loaded, code, file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hermlat.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr.splitlines()[-1] == "False 0"
    assert " 0 failed" in out.stdout


def test_no_unused_parameters():
    # a parameter is read when the body, nested functions included, loads
    # its name; self and cls are exempt
    unused = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unused += [
                f"{path.name}:{node.lineno} {name}({p})"
                for p in params
                if p not in read and p not in ("self", "cls")
            ]
    assert unused == []


def test_no_mode_flags():
    # a parameter defaulting to True or False switches a function between
    # two jobs; split the function, or let the caller stop a lazy one
    flagged = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            defaults += list(zip(args.kwonlyargs, args.kw_defaults))
            name = getattr(node, "name", "<lambda>")
            flagged += [
                f"{path.name}:{node.lineno} {name}({a.arg})"
                for a, default in defaults
                if isinstance(default, ast.Constant) and isinstance(default.value, bool)
            ]
    assert flagged == []


def test_no_unread_private_definitions():
    # a module-level _name function or class is read by name (a load, an
    # attribute or an import) somewhere in the package
    defined, read = [], set()
    for path in MODULES:
        tree = _tree(path)
        defined += [
            f"{path.name}:{node.lineno} {node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
        ]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    assert [d for d in defined if d.split()[-1] not in read] == []


def _reads(tree: ast.Module):
    """The names a module reads: loaded names and attribute names."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_public_names_are_read():
    # every public def or class, methods included, is read by the package or
    # the benchmark, or re-exported from hermlat/__init__.py
    package = Path(hermlat.__file__).parent
    bench = sorted((package.parents[1] / "bench").glob("*.py"))
    read = {name for path in MODULES + bench for name in _reads(_tree(path))}
    read.update(
        alias.name
        for node in ast.walk(_tree(package / "__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    unread = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert unread == []


def test_oracles_are_read():
    # every top-level function of tests/oracles.py is read by a module under
    # tests/ or bench/: by another oracle, or by a test, never only by itself
    root = Path(__file__).resolve().parents[1]
    oracles = root / "tests" / "oracles.py"
    others = sorted((root / "tests").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    read = set()
    for path in others:
        if path == oracles:
            continue
        tree = _tree(path)
        read.update(_reads(tree))
        read.update(alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names)
    defs = [n for n in _tree(oracles).body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unread = [
        f"oracles.py:{f.lineno} {f.name}"
        for f in defs
        if f.name not in read and not any(f.name in _reads(g) for g in defs if g is not f)
    ]
    assert unread == []


def test_one_integer_rule():
    # int-not-bool is ring._int_type alone: no other isinstance(..., bool)
    # and no other `is bool` / `is not bool` comparison in the package
    def names_bool(node):
        return any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node))

    found = []
    for path in MODULES:
        tree = _tree(path)
        exempt = {
            id(n)
            for f in tree.body
            if path.name == "ring.py" and isinstance(f, ast.FunctionDef) and f.name == "_int_type"
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                hit = len(node.args) == 2 and names_bool(node.args[1])
            elif isinstance(node, ast.Compare):
                hit = any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) and names_bool(node)
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_pairings_outside_lattice_go_through_one_product():
    # a Gram matrix of a vector list is lattice._gram_of, one product G v
    # per vector; pairing loops over inner or norm repeat that product
    calls = [
        f"{path.name}:{node.lineno} {name}"
        for path in MODULES
        if path.name != "lattice.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if name in ("inner", "norm")
    ]
    assert calls == []


def _params(node):
    args = node.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _called(node):
    """The name a call or a decorator names: f for f(...), m.f(...), f, m.f."""
    func = getattr(node, "func", node)
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_one_budget_per_command():
    # a command makes one Budget and every search spends from it: no search
    # takes a node count of its own, a Budget with a limit is made only by
    # the two commands that search (analyze and the claim list), a library
    # function only defaults a missing one with `budget or Budget()`, and no
    # module-level cache keys a report on a budget
    commands = (("cli.py", "_cmd_analyze"), ("claims.py", "claim_list"))
    found = []
    for path in MODULES:
        for top in _tree(path).body:
            nodes = list(ast.walk(top))
            defaults = {id(n.values[-1]) for n in nodes if isinstance(n, ast.BoolOp) and isinstance(n.op, ast.Or)}
            for node in nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    if "max_nodes" in _params(node):
                        found.append(f"{path.name}:{node.lineno} max_nodes")
                elif isinstance(node, ast.Call) and _called(node) == "Budget":
                    default = id(node) in defaults and not (node.args or node.keywords)
                    if not default and (path.name, getattr(top, "name", None)) not in commands:
                        found.append(f"{path.name}:{node.lineno} Budget(...)")
            if isinstance(top, ast.FunctionDef) and "budget" in _params(top):
                if any(_called(d) == "lru_cache" for d in top.decorator_list):
                    found.append(f"{path.name}:{top.lineno} cached {top.name}(budget)")
    assert found == []


def test_one_transfer_witness_norm():
    # every claim on a cyclic-form witness compares the one norm that
    # claims._transfer_norm reads off transfer_image; the helpers that once
    # wrapped it in layers are gone
    callers = [
        f"{path.stem}.{getattr(top, 'name', top.lineno)}"
        for path in MODULES
        for top in _tree(path).body
        if any(isinstance(n, ast.Call) and _called(n) == "transfer_image" for n in ast.walk(top))
    ]
    assert callers == ["claims._transfer_norm"]
    for gone in ("_witness_holds", "_char_witness_norm", "_floor3_multiplier", "_transfer_characteristic_norm"):
        assert all(gone not in path.read_text(encoding="utf-8") for path in MODULES)


def test_reductions_are_plain_tuples():
    # ring.py defines one class, LaurentPoly, and forms.py one, HermitianForm:
    # a reduction mod x^n - 1 is the tuple of its coefficients, and a reduced
    # form the matrix of those tuples, with no wrapper type.  A tuple
    # concatenates under + and repeats under *, so no +, - or * (nor its
    # augmented assignment) takes a .reduce(...) call as an operand:
    # group-ring arithmetic is done over Z[x,1/x] before reducing
    package = Path(hermlat.__file__).parent
    for module, only in (("ring.py", "LaurentPoly"), ("forms.py", "HermitianForm")):
        tree = _tree(package / module)
        assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == [only]
    for gone in ("CyclicElement", "CyclicForm", "aug_form"):
        assert not hasattr(hermlat, gone)
        assert all(gone not in path.read_text(encoding="utf-8") for path in MODULES)
    Gn = forms.reduce_form(forms.build_form_power(1), 3)
    assert type(Gn) is tuple and len(Gn) == 4
    for row in Gn:
        assert type(row) is tuple and len(row) == 4
        assert all(type(e) is tuple and len(e) == 3 and all(type(c) is int for c in e) for e in row)

    def reduced(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "reduce"

    ops = (ast.Add, ast.Sub, ast.Mult)
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ops):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ops):
                operands = (node.target, node.value)
            else:
                continue
            if any(map(reduced, operands)):
                found.append(f"{path.name}:{node.lineno} arithmetic on a reduction")
    assert found == []
