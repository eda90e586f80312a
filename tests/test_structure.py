"""Module boundaries of the package, checked on its source with ``ast``.

No module imports another module's private names, a module above it in the
layering, or anything outside the standard library and the package, no
module binds a private name it never reads, no function takes a parameter
it never reads, every ``__all__`` entry is defined in its module, no
module takes a midpoint as ``0.5 * (u + v)``, no module but ``expr`` compares a value
with 64, the largest exponent ``^`` multiplies out, ``calculus`` reads its
near-zero ratio in ``_clear_of_zero`` only and reads ``Verdict.NO`` and
``Verdict.UNKNOWN`` in ``_verdict`` only, ``expr`` names
``DIVISION_BY_ZERO`` in ``_div`` and ``_pow`` only,
``POWER_OF_NON_POSITIVE`` in ``_pow`` only and the ln and sqrt failures in
their entries of the operator table ``_RULES`` only, ``expr`` defines no
expression node class, no public function takes a ``tape`` parameter,
``expr`` reads a tape's ``_keys`` in ``Tape.put`` only,
``calculus`` reads its node builders ``_neg``, ``_binary`` and ``_call``
in ``_simplify`` and ``_derivative`` only, a tape has no cone walker but
``expr.steps``, whose lists ``_simplify`` folds with nothing carried over
from call to call, and the step lists kept on a tape are read in
``expr.steps`` only, no
module imports ``dataclasses``, no module calls ``exec``, ``eval`` or
``compile``, no function calls itself and no module names
``RecursionError``, and the README lists exactly the names the package exports.  One test imports the
package in a fresh interpreter to check what the import loads.
"""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

import mvtcheck
from mvtcheck.expr import Tape

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mvtcheck").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound_names(tree):
    """Names bound at module level by def, class, assignment or import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "expr.py", "theorem.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "mvtcheck")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# lowest first: each module may import only from the modules before it
LAYERS = ("expr", "numeric", "calculus", "theorem", "cli")


def _package_imports(tree):
    """(line, module) for each package module imported, ``TYPE_CHECKING`` blocks included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: the package is flat
                base = f"mvtcheck.{base}".rstrip(".")
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "mvtcheck" and len(parts) > 1:
                yield node.lineno, parts[1]


@pytest.mark.parametrize("name", LAYERS)
def test_modules_import_only_from_the_layers_below(name):
    below = LAYERS[: LAYERS.index(name)]
    upward = [
        f"line {line}: {module}"
        for line, module in _package_imports(_tree(ROOT / "src" / "mvtcheck" / f"{name}.py"))
        if module not in below
    ]
    assert upward == []


def test_layers_cover_every_module():
    assert {p.stem for p in SOURCES} == {"__init__", "__main__", *LAYERS}


def _top_level_imports(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = [
        f"line {node.lineno}: {name}"
        for node in ast.walk(_tree(path))
        for name in _top_level_imports(node)
        if name not in sys.stdlib_module_names and name != "mvtcheck"
    ]
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_name_is_read_in_its_module(path):
    tree = _tree(path)
    private = {n for n in _bound_names(tree) if n.startswith("_") and not n.startswith("__")}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    assert sorted(private - read) == []


def _unread_parameters(tree):
    """``function: parameter`` for each parameter its function never reads.

    Dunder methods are exempt, since their signatures are fixed by Python,
    and so is a method's receiver."""
    receivers = {
        id(method.args.args[0])
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.args.args
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for statement in body
            for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for param in params:
            if param is not None and id(param) not in receivers and param.arg not in read:
                yield f"{name}: {param.arg}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read_in_its_function(path):
    assert list(_unread_parameters(_tree(path))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_entries_are_defined(path):
    tree = _tree(path)
    assert sorted(set(_exported(tree)) - _bound_names(tree)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # importing dataclasses, and creating dataclasses, would triple the
    # package's import time; records derive from expr.Record instead
    found = [
        f"line {node.lineno}"
        for node in ast.walk(_tree(path))
        if "dataclasses" in _top_level_imports(node)
    ]
    assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_generates_code(path):
    # expressions are evaluated by interpreting a tape, never by
    # generating Python source: no module calls the builtins that
    # run or compile it
    found = [
        f"line {node.lineno}: {node.func.id}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval", "compile")
    ]
    assert found == []


def _self_calls(tree):
    """``function: line`` for each call of a function or method to its own
    name, or to ``self.<its name>``, anywhere in its body."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for statement in node.body:
            for call in ast.walk(statement):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Name) and func.id == node.name) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == node.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                ):
                    yield f"{node.name}: line {call.lineno}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # every walk over an expression or a grid keeps an explicit stack or
    # list, so no depth of nesting and no length of a sum reaches Python's
    # recursion limit
    assert list(_self_calls(_tree(path))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_names_recursion_error(path):
    # nothing recurses, so nothing has a RecursionError to catch or report
    assert "RecursionError" not in path.read_text(encoding="utf-8")


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import mvtcheck, mvtcheck.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(proc.stdout.split())
    assert "mvtcheck.cli" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


def _halved_sums(tree):
    """Lines computing ``0.5 * (u + v)``, ``(u + v) * 0.5`` or ``(u + v) / 2``."""

    def is_sum(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)

    def is_number(node, value):
        return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == value

    for node in ast.walk(tree):
        if not isinstance(node, ast.BinOp):
            continue
        left, right = node.left, node.right
        if isinstance(node.op, ast.Mult) and (
            (is_number(left, 0.5) and is_sum(right)) or (is_sum(left) and is_number(right, 0.5))
        ):
            yield f"line {node.lineno}"
        elif isinstance(node.op, ast.Div) and is_sum(left) and is_number(right, 2):
            yield f"line {node.lineno}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_midpoints_are_taken_by_numeric_midpoint(path):
    # u + v overflows for large finite ends of one sign; numeric.midpoint
    # halves each end first
    assert list(_halved_sums(_tree(path))) == []


def _compared_with_64(tree):
    """Lines of comparisons with 64 (or -64) as an operand."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                if isinstance(operand, ast.UnaryOp) and isinstance(operand.op, ast.USub):
                    operand = operand.operand
                if isinstance(operand, ast.Constant) and type(operand.value) in (int, float) and operand.value == 64:
                    yield f"line {node.lineno}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "expr.py"], ids=lambda p: p.name)
def test_integer_powers_are_told_by_expr_integer_exponent(path):
    # which exponents ``^`` multiplies out is expr's rule: every other
    # module asks expr.integer_exponent rather than restating it
    assert list(_compared_with_64(_tree(path))) == []


def _dotted(node):
    """``a.b.c`` for a name or a chain of attributes on one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _reads(tree, name):
    """(enclosing top-level function or None, line) of each read of ``name``,
    a plain name or a dotted one such as ``Verdict.NO``."""
    for top in tree.body:
        function = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                if _dotted(node) == name:
                    yield function, node.lineno


def test_near_zero_rule_is_read_in_clear_of_zero_only():
    # the scan's suspicion test and the interval-bound skip both ask
    # _clear_of_zero, so the "suspiciously near zero" rule is stated once
    reads = list(_reads(_tree(ROOT / "src" / "mvtcheck" / "calculus.py"), "_SUSPICION_RATIO"))
    assert reads and [f"line {line}" for function, line in reads if function != "_clear_of_zero"] == []


@pytest.mark.parametrize("name", ["Verdict.NO", "Verdict.UNKNOWN"])
def test_smoothness_verdicts_are_derived_in_verdict_only(name):
    # analyze_smoothness reads both verdicts off its witnesses and doubt
    # flags through _verdict, so a NO always comes with its witness
    reads = list(_reads(_tree(ROOT / "src" / "mvtcheck" / "calculus.py"), name))
    assert reads and [f"line {line}: {function}" for function, line in reads if function != "_verdict"] == []


def _mentions(tree, name):
    """(enclosing top-level function or None, line) of each read of ``name``
    as a name or an attribute, and of each string constant holding it."""
    for top in tree.body:
        function = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if (
                (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.Constant) and isinstance(node.value, str) and name in node.value)
            ):
                yield function, node.lineno


# the functions of expr that may name each failure kind of / and ^
RULE_OWNERS = {"DIVISION_BY_ZERO": ("_div", "_pow"), "POWER_OF_NON_POSITIVE": ("_pow",)}


@pytest.mark.parametrize("name", RULE_OWNERS)
def test_division_and_pole_rules_are_stated_in_div_and_pow_only(name):
    # both evaluators call _div and _pow, and the interval bounds ask _pow,
    # so the rules of division by zero, of zero raised to a negative power
    # and of a non-integer power of a non-positive base are stated once;
    # code written for the compiler or the bounds must not restate them
    mentions = list(_mentions(_tree(ROOT / "src" / "mvtcheck" / "expr.py"), name))
    outside = [f"line {line}: {function}" for function, line in mentions if function not in RULE_OWNERS[name]]
    assert mentions and outside == []


@pytest.mark.parametrize("name", ["LOG_OF_NON_POSITIVE", "ROOT_OF_NEGATIVE"])
def test_ln_and_sqrt_rules_are_stated_in_domains_only(name):
    # the three tape interpreters and fold read the least argument of ln
    # and sqrt from their entries of the one operator table, _RULES, so
    # each rule is stated once, in its entry
    fn = {"LOG_OF_NON_POSITIVE": "ln", "ROOT_OF_NEGATIVE": "sqrt"}[name]
    tree = _tree(ROOT / "src" / "mvtcheck" / "expr.py")
    (table,) = [
        node for node in tree.body
        if isinstance(node, ast.AnnAssign) and _dotted(node.target) == "_RULES"
    ]
    (entry,) = [
        value for key, value in zip(table.value.keys, table.value.values)
        if isinstance(key, ast.Constant) and key.value == fn
    ]
    mentions = list(_mentions(tree, name))
    outside = [
        f"line {line}: {function}" for function, line in mentions
        if function is not None or not entry.lineno <= line <= entry.end_lineno
    ]
    assert mentions and outside == []


def test_expr_defines_no_expression_node_class():
    # an expression is a handle on a tape: Expr, whose fields are the tape
    # and a slot, is the one expression class, and no class has the fields
    # of a node of a tree
    tree = _tree(ROOT / "src" / "mvtcheck" / "expr.py")
    fields = {
        node.name: ast.literal_eval(statement.value)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for statement in node.body
        if isinstance(statement, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in statement.targets
        )
    }
    assert fields["Expr"] == ("tape", "slot")
    node_fields = {"value", "child", "op", "left", "right", "fn", "argument"}
    assert sorted(name for name, slots in fields.items() if node_fields & set(slots)) == []
    for name in ("Constant", "Variable", "Neg", "Binary", "Call"):
        assert not hasattr(mvtcheck.expr, name)


def _tape_parameters(tree):
    """``function: tape`` for each public function or method, dunders
    exempt, that takes a parameter named ``tape``."""
    for top in tree.body:
        functions = [top] if isinstance(top, ast.FunctionDef) else []
        if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
            functions = [m for m in top.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
        for node in functions:
            if node.name.startswith("_"):
                continue
            args = node.args
            names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
            if "tape" in names:
                yield f"{node.name}: tape"


def test_no_public_function_takes_a_tape_parameter():
    # an expression carries its tape: a function reads the handle's, and
    # no caller hands one in beside it
    assert [f"{path.name} {found}" for path in SOURCES for found in _tape_parameters(_tree(path))] == []


def test_node_keys_are_read_by_the_tape_only():
    # Tape.put, through which every pass that builds nodes slot by slot
    # keys them, is the one place that decides which subexpressions are
    # equal: no other pass keys nodes itself.  A tape's key map is set in
    # Tape.__init__ and read in Tape.put only
    tree = _tree(ROOT / "src" / "mvtcheck" / "expr.py")
    (tape,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Tape"]
    methods = {method.name: method for method in tape.body if isinstance(method, ast.FunctionDef)}
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "_keys"]
    owners = {ast.Load: methods["put"], ast.Store: methods["__init__"]}

    def owned(use):
        owner = owners.get(type(use.ctx))
        return owner is not None and owner.lineno <= use.lineno <= owner.end_lineno

    assert {type(use.ctx) for use in uses} == set(owners)
    assert [f"line {use.lineno}" for use in uses if not owned(use)] == []


def test_cones_are_listed_by_steps_only():
    # steps lists a cone once per tape and keeps the list there, which the
    # interpreters, the hazard search, the fold and the derivative read: a tape has no second cone walker, only steps reads
    # the kept lists, and the fold takes the tape and a slot, no memo
    owners = {"cone": set(), "_steps": {("expr.py", "steps"), ("expr.py", "Tape")}}
    found = {name: set() for name in owners}
    for path in SOURCES:
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in owners:
                    found[node.attr].add((path.name, getattr(top, "name", None)))
    assert found == owners
    assert not hasattr(Tape, "cone")
    (fold,) = [
        node
        for node in _tree(ROOT / "src" / "mvtcheck" / "calculus.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "_simplify"
    ]
    assert [arg.arg for arg in fold.args.args] == ["t", "slot"]


@pytest.mark.parametrize("name", ["_neg", "_binary", "_call"])
def test_fold_rules_are_applied_by_simplify_and_derivative_only(name):
    # the node builders hold the fold rules, and _simplify's per-slot fold
    # is the one pass that applies them to a given tape (_derivative builds
    # its own nodes): no second pass restates simplify over another structure
    reads = list(_reads(_tree(ROOT / "src" / "mvtcheck" / "calculus.py"), name))
    outside = [f"line {line}: {function}" for function, line in reads if function not in ("_simplify", "_derivative")]
    assert reads and outside == []


def test_readme_lists_the_exported_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("Exported names:", 1)[1].split("\n\n", 2)[1]
    assert sorted(re.findall(r"`(\w+)`", section)) == sorted(mvtcheck.__all__)
