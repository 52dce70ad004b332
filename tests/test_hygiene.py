"""Static hygiene of the package sources, checked with the standard ``ast``.

Two rules catch what a refactor leaves behind: an import no longer used in
its module, and a private module-level name nothing refers to any more.  A
third keeps one conversion of a set to an index array, a fourth keeps
each module's private names its own, a fifth keeps one translation of
a whole carrier, a sixth keeps one refusal for every resource limit,
a seventh keeps ``np.unique`` to the calls that need its indices or
counts, an eighth keeps numpy scalars out of ``Fraction``, a ninth keeps
length refusals out of the CLI, in the shapes of ``config.array``, and a
tenth keeps in the package only what a run of the CLI reaches, besides a
few names allowed with their reasons, and an eleventh keeps in each class
only fields and methods something reads, with no exceptions, a twelfth
keeps ``lattice`` out of the determinant scans, a thirteenth keeps a
``cached_property`` from shadowing a dataclass field, and a fourteenth keeps
one record per tuple of field names.  Run this file to print
what a run reaches, the allowed names and anything unreached or unread.
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


def _lattice_imports(tree: ast.Module) -> list[int]:
    """Lines importing the ``lattice`` module or a name from it."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and ((node.module or "").split(".")[-1] == "lattice" or any(a.name == "lattice" for a in node.names))
        or isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "lattice" for a in node.names)
    ]


def test_the_kernels_import_nothing_from_lattice():
    # every scan takes its determinants from its own cofactor rows, and
    # lattice.det_exact imports the elimination step from the kernels, not the
    # other way round; per-subset determinants (lattice.simplex_det) stay with
    # the witness checks and the tests
    assert not _lattice_imports(_trees()["kernels.py"])
    planted = ["from .lattice import simplex_det", "from . import lattice", "import latspec.lattice", "from latspec.lattice import det_exact"]
    assert all(_lattice_imports(ast.parse(line)) == [1] for line in planted)


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


#: where a run starts: the CLI's entry point and the tables it reads a config through
ROOTS = [("cli.py", name) for name in ("main", "_RUNNERS", "TABLES", "KRONECKER_REPORT", "COMMON", "_PARSER")]

#: top-level names of the package that no run reaches, each kept for its reason
ALLOWED = {
    ("spectral.py", "small_intersection_bound"): "the paper's small-intersection lemma, checked by test_acceptance.py",
    ("spectral.py", "SmallIntersectionResult"): "the result of small_intersection_bound",
    ("spectral.py", "P_SUBSET_LIMIT"): "the limit small_intersection_bound admits its p-subsets by",
}

_DEFINITIONS = (ast.FunctionDef, ast.ClassDef, ast.Assign)


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [node.name]


def reachability(trees: dict[str, ast.Module]) -> tuple[dict, set]:
    """Every top-level definition of the package, (module, name) -> its
    statements, and the set of those a run reaches from ``ROOTS``.

    A definition reaches each top-level name its statements read: one of
    its own module, one imported from another module of the package, or
    ``module.name`` through an imported module.  A class reaches whatever
    its methods read.  A statement run on import that defines and imports
    nothing is a root too; ``__init__.py``'s imports, the re-exports, are not."""
    defs: dict[tuple[str, str], list[ast.stmt]] = {}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                for defined in _defined(node):
                    defs.setdefault((name, defined), []).append(node)

    def resolver(name: str, tree: ast.Module):
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module:
                        names[bound] = (f"{node.module}.py", alias.name)
                    elif f"{alias.name}.py" in trees:
                        modules[bound] = f"{alias.name}.py"
                    else:
                        names[bound] = ("__init__.py", alias.name)

        def reads(node: ast.AST) -> set[tuple[str, str]]:
            out = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                    out.add(names.get(n.id, (name, n.id)))
                elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
                    out.add((modules[n.value.id], n.attr))
            return out & defs.keys()

        return reads

    reads = {name: resolver(name, tree) for name, tree in trees.items()}
    todo = list(ROOTS)
    for name, tree in trees.items():
        if name != "__init__.py":
            run = [node for node in tree.body if not isinstance(node, (*_DEFINITIONS, ast.Import, ast.ImportFrom))]
            todo += [key for node in run for key in reads[name](node)]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += [found for node in defs[key] for found in reads[key[0]](node)]
    return defs, reached


def _unreached(trees: dict[str, ast.Module]) -> list[str]:
    defs, reached = reachability(trees)
    kept = reached | ALLOWED.keys()
    return [f"{name}:{nodes[0].lineno} {defined}" for (name, defined), nodes in sorted(defs.items()) if (name, defined) not in kept]


def test_every_top_level_name_is_reached_by_a_run_or_allowed():
    trees = _trees()
    defs, reached = reachability(trees)
    assert set(ROOTS) <= defs.keys() and ALLOWED.keys() <= defs.keys()
    # an allowed name a run reaches needs no reason
    assert not ALLOWED.keys() & reached
    assert not _unreached(trees)
    # a function nothing calls is found, as is what only it calls
    planted = ast.parse("def planted():\n    return orphan()\n\n\ndef orphan():\n    return 0\n")
    trees["lattice.py"].body += planted.body
    assert _unreached(trees) == ["lattice.py:5 orphan", "lattice.py:1 planted"]


#: where a field or method of the package may be read: the package, its tests and its benchmark
READERS = [SRC, SRC.parents[1] / "tests", SRC.parents[1] / "perfbench"]

def attribute_reads() -> set[str]:
    """Every attribute name read (not assigned) in the package, its tests and its benchmark."""
    return {
        node.attr
        for root in READERS
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def members(trees: dict[str, ast.Module]) -> dict[tuple[str, str, str], int]:
    """(module, class, name) -> line of every annotated field, method and
    property of a class of the package, dunders left out."""
    out = {}
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        out[name, cls.name, node.target.id] = node.lineno
                    elif isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__")):
                        out[name, cls.name, node.name] = node.lineno
    return out


def _unread(trees: dict[str, ast.Module], reads: set[str]) -> list[str]:
    # a member is read by name: a read of another class's member of that name counts too
    return [
        f"{module}:{line} {cls}.{name}"
        for (module, cls, name), line in sorted(members(trees).items())
        if name not in reads
    ]


def test_every_class_member_is_read_somewhere():
    trees, reads = _trees(), attribute_reads()
    assert not _unread(trees, reads)
    # a field and a method nothing reads are found; one read elsewhere is not
    planted = ast.parse("class Planted:\n    unread: int\n    ok: bool\n\n    def unused(self):\n        return 0\n")
    trees["volume.py"].body += planted.body
    assert _unread(trees, reads) == ["volume.py:2 Planted.unread", "volume.py:5 Planted.unused"]


def _decorated(node: ast.ClassDef | ast.FunctionDef, name: str) -> bool:
    """Whether ``name`` or ``name(...)`` decorates node, bare or as ``module.name``."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == name or isinstance(t, ast.Attribute) and t.attr == name for t in targets)


def shadowed_fields(trees: dict[str, ast.Module]) -> list[str]:
    """Every ``cached_property`` that has the name of a dataclass field of its
    class or of a base class, as ``module:line Class.name``."""
    classes = {cls.name: cls for tree in trees.values() for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)}

    def fields(cls: ast.ClassDef) -> set[str]:
        own = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
        bases = [classes[b.id] for b in cls.bases if isinstance(b, ast.Name) and b.id in classes]
        return (own if _decorated(cls, "dataclass") else set()).union(*map(fields, bases))

    return [
        f"{name}:{node.lineno} {cls.name}.{node.name}"
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and _decorated(node, "cached_property") and node.name in fields(cls)
    ]


def test_no_cached_property_shadows_a_dataclass_field():
    # a dataclass's __eq__, __hash__ and __repr__ read every field, so a lazy
    # part under a field's name is built by comparing, hashing or printing
    trees = _trees()
    assert not shadowed_fields(trees)
    # one under a base's field and one under its own are found; a field of a
    # class that is not a dataclass is not one
    planted = ast.parse(
        "@dataclass(frozen=True)\nclass PlantedBase:\n    atoms: tuple\n\n\n"
        "class PlantedLazy(PlantedBase):\n    @cached_property\n    def atoms(self):\n        return ()\n\n\n"
        "@dataclasses.dataclass\nclass PlantedOwn:\n    weights: list\n\n    @functools.cached_property\n    def weights(self):\n        return []\n\n\n"
        "class PlantedPlain:\n    rows: list\n\n    @cached_property\n    def rows(self):\n        return []\n"
    )
    trees["volume.py"].body += planted.body
    assert shadowed_fields(trees) == ["volume.py:8 PlantedLazy.atoms", "volume.py:17 PlantedOwn.weights"]


def _is(node: ast.expr, name: str) -> bool:
    """Whether node is ``name``, bare or as ``module.name``."""
    return isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name


def record_fields(trees: dict[str, ast.Module]) -> dict[str, tuple[str, ...]]:
    """``module:line Name`` -> the field names, in order, of every dataclass
    and NamedTuple of the package, the functional ``NamedTuple(name, fields)`` too."""
    out = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (_decorated(node, "dataclass") or any(_is(b, "NamedTuple") for b in node.bases)):
                fields = [n.target.id for n in node.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
                out[f"{name}:{node.lineno} {node.name}"] = tuple(fields)
            elif isinstance(node, ast.Call) and _is(node.func, "NamedTuple") and len(node.args) == 2:
                fields = [pair.elts[0].value for pair in node.args[1].elts]
                out[f"{name}:{node.lineno} {node.args[0].value}"] = tuple(fields)
    return out


def shared_fields(trees: dict[str, ast.Module]) -> list[str]:
    """Every group of records with one tuple of field names, joined by ``=``."""
    groups: dict[tuple[str, ...], list[str]] = {}
    for record, fields in record_fields(trees).items():
        groups.setdefault(fields, []).append(record)
    return sorted(" = ".join(records) for records in groups.values() if len(records) > 1)


def test_no_two_records_have_the_same_fields():
    # a concept has one record: a second with the same fields is the same
    # concept under another name, as a saturation interval once was a Weight
    trees = _trees()
    assert len(record_fields(trees)) > 20 and not shared_fields(trees)
    # a dataclass and a functional NamedTuple with one tuple of fields are
    # found; the same names in another order, or on a plain class, are not
    planted = ast.parse(
        "@dataclass(frozen=True)\nclass PlantedPoint:\n    x: int\n    y: int\n\n\n"
        "PlantedPair = typing.NamedTuple(\"PlantedPair\", [(\"x\", int), (\"y\", int)])\n\n\n"
        "class PlantedSwapped(NamedTuple):\n    y: int\n    x: int\n\n\n"
        "class PlantedPlain:\n    x: int\n    y: int\n"
    )
    trees["volume.py"].body += planted.body
    assert shared_fields(trees) == ["volume.py:2 PlantedPoint = volume.py:7 PlantedPair"]


if __name__ == "__main__":
    trees = _trees()
    defs, reached = reachability(trees)
    print(f"reached from {', '.join(f'{m[:-3]}.{n}' for m, n in ROOTS)}: {len(reached)} of {len(defs)} top-level names")
    print("allowed:", *(f"{m[:-3]}.{n}: {reason}" for (m, n), reason in sorted(ALLOWED.items())), sep="\n  ")
    print("unreached:", *(_unreached(trees) or ["none"]), sep="\n  ")
    print(f"class fields and methods: {len(members(trees))}")
    print("unread:", *(_unread(trees, attribute_reads()) or ["none"]), sep="\n  ")
