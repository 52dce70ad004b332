"""Static hygiene of the package sources, checked with the standard ``ast``.

Two rules catch what a refactor leaves behind: an import no longer used in
its module, and a private module-level name nothing refers to any more.  A
third keeps one conversion of a set to an index array, a fourth keeps
each module's private names its own, a fifth keeps one translation of
a whole carrier, a sixth keeps one refusal for every resource limit,
a seventh keeps ``np.unique`` to the calls that need its indices or
counts, an eighth keeps numpy scalars out of ``Fraction``, and a ninth
keeps length refusals out of the CLI, in the shapes of ``config.array``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latspec"


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _loads(tree: ast.AST) -> set[str]:
    """Names read anywhere in the tree, attribute names included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_import_is_used_in_its_module():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":  # its imports are the package's re-exports
            continue
        used = _loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused


def test_every_private_module_name_is_referenced():
    trees = _trees()
    referenced = set()
    for tree in trees.values():
        referenced |= _loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for private in defined:
                if private.startswith("_") and not private.startswith("__") and private not in referenced:
                    orphans.append(f"{name}:{node.lineno} {private}")
    assert not orphans


def test_sets_become_index_arrays_only_in_the_refusing_conversion():
    # systems._cells is the one np.fromiter: it refuses an element outside
    # the carrier, which numpy would wrap or fail on with IndexError
    def fromiters(tree):
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "fromiter"
            or isinstance(node, ast.Name) and node.id == "fromiter"
        ]

    trees = _trees()
    cells = [f for f in ast.walk(trees["systems.py"]) if isinstance(f, ast.FunctionDef) and f.name == "_cells"]
    assert len(cells) == 1 and fromiters(cells[0])
    sites = {name: fromiters(tree) for name, tree in trees.items()}
    assert {name: lines for name, lines in sites.items() if lines} == {"systems.py": fromiters(cells[0])}


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs is public in its home module
    imports = [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("latspec"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not imports


def test_whole_carriers_move_only_by_shift():
    # FiniteSystem.shift moves an array over the whole carrier by slices;
    # translate computes one index per element, so it takes index arrays of
    # sets, never every flat index at once
    def aranges(node):
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Attribute, ast.Name))
            and (n.func.attr if isinstance(n.func, ast.Attribute) else n.func.id) == "arange"
        ]

    sites = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "translate"
        and any(aranges(arg) for arg in [*node.args, *(k.value for k in node.keywords)])
    ]
    assert not sites


def _called(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)) and (
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
    ) == name


def _limit_argument(call: ast.Call, position: int) -> list[str]:
    """The names read by the limit argument of a call, by position or as ``limit=``."""
    args = [*call.args[position:position + 1], *(k.value for k in call.keywords if k.arg == "limit")]
    return sorted(set().union(*map(_loads, args)))


def test_every_limit_is_refused_by_config_admit():
    # config.admit is the one wording and the one class of a limit refusal
    trees = _trees()
    wording = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        if name != "config.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "over the limit" in node.value
    ]
    assert not wording

    functions = {f.name: f for f in trees["config.py"].body if isinstance(f, ast.FunctionDef)}
    inside = set(map(id, ast.walk(functions["admit"])))
    made = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if (_called(node, "LimitError") or isinstance(node, ast.Raise) and "LimitError" in _loads(node))
        and id(node) not in inside
    ]
    assert not made and any(_called(node, "LimitError") for node in ast.walk(functions["admit"]))

    # at_most passes its limit on to admit, so a limit given to at_most is admitted
    assert any(_called(n, "admit") and _limit_argument(n, 1) == ["limit"] for n in ast.walk(functions["at_most"]))
    admitted = set()
    for name, tree in trees.items():
        origin = {
            alias.asname or alias.name: f"{node.module}.py"
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
        for node in ast.walk(tree):
            for called, position in (("admit", 1), ("at_most", 0)):
                if _called(node, called):
                    admitted.update((origin.get(limit, name), limit) for limit in _limit_argument(node, position))
    limits = {
        (name, target.id)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_LIMIT")
    }
    # TABLE_LIMIT only chooses the int64 kernel path; it refuses nothing
    assert limits - admitted == {("kernels.py", "TABLE_LIMIT")}


def test_np_unique_is_called_only_for_its_indices_or_counts():
    # a bare np.unique sorts where a mask count does, and imports numpy.ma
    # on its first call
    wanted = {"return_index", "return_inverse", "return_counts"}
    bare = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if _called(node, "unique") and not wanted & {k.arg for k in node.keywords}
    ]
    assert not bare


#: ndarray methods whose result is a numpy scalar or an array
_ARRAY_METHODS = {"sum", "prod", "max", "min", "mean", "dot", "trace"}


def _numpy_results(node: ast.AST) -> list[ast.AST]:
    """The numpy results an expression yields unwrapped: a call on ``np.<name>``,
    an array method or a matrix product, followed through arithmetic; any
    other call, ``int(...)`` among them, ends the search."""
    if isinstance(node, ast.BinOp):
        return [node] if isinstance(node.op, ast.MatMult) else _numpy_results(node.left) + _numpy_results(node.right)
    if isinstance(node, ast.UnaryOp):
        return _numpy_results(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        on_np = isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        return [node] if on_np or node.func.attr in _ARRAY_METHODS else []
    return []


def test_fractions_are_built_from_python_integers():
    # a Fraction keeps a numpy integer as its numerator, and every product
    # and comparison with it then runs in int64 and can wrap
    unwrapped = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if _called(node, "Fraction") and any(_numpy_results(arg) for arg in node.args)
    ]
    assert not unwrapped


def test_the_cli_refuses_no_length_itself():
    # a field's length is refused by the shape config.array gives it, in one
    # wording that names its path; a length compared in the CLI would be a second rule
    def compares_a_len(test: ast.AST) -> bool:
        return any(
            isinstance(node, ast.Compare) and any(_called(side, "len") for side in [node.left, *node.comparators])
            for node in ast.walk(test)
        )

    sites = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(_trees()["cli.py"])
        if isinstance(node, ast.If) and compares_a_len(node.test)
        and any(isinstance(n, ast.Raise) and "ConfigError" in _loads(n) for stmt in node.body for n in ast.walk(stmt))
    ]
    assert not sites
