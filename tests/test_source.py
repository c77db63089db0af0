"""Static checks on the package source, with the standard library's `ast`,
and on the one representation of partitions that the source keeps."""
import ast
from collections import Counter
from pathlib import Path

from spinonchars import qseries
from spinonchars.cli import CHAR_KINDS, _build_table
from spinonchars.partitions import conjugate, horizontal_strips, partition, partitions_of
from spinonchars import strips
from spinonchars.symfunc import gz_schemes, ribbon_expansion

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spinonchars"


def _used_names(tree: ast.AST) -> set[str]:
    """Every name read in `tree`, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                expr = ast.parse(part.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _used_names(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    """Every name a module imports is read in it, the package root included,
    which re-exports nothing."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = [line for path in modules for line in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_cli_renders_tables_without_the_indenting_encoder():
    """`json.dumps(..., indent=...)` runs CPython's pure-Python encoder, which
    took most of the time of a large `char --format json`; the CLI lays out
    every JSON text it prints itself (`_write_table`, `_json_text`).  No
    `json.dump`/`json.dumps` call in `cli.py` may indent."""
    probe = ast.parse("json.dumps(x)\njson.dump(x, f, indent=2)")
    assert [call.lineno for call in _indenting_dumps(probe)] == [2]
    offenders = [f"cli.py:{call.lineno}"
                 for call in _indenting_dumps(ast.parse((PACKAGE / "cli.py").read_text()))]
    assert not offenders, "indenting JSON encoder:\n" + "\n".join(offenders)


def test_no_module_binds_a_ceiling_of_its_own():
    """`cli.CEILINGS` is the one table of ceilings on outside input, so no
    module binds a `MAX_*` name at module level."""
    probe = ast.parse("MAX_A = 1\nMAX_B: int = 2\nMAXED = 3\ndef f():\n    MAX_C = 4")
    assert _module_max_names(probe) == ["MAX_A", "MAX_B"]
    offenders = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
                 for name in _module_max_names(ast.parse(path.read_text()))]
    assert not offenders, "module-level MAX_* names:\n" + "\n".join(offenders)


def _module_max_names(tree: ast.Module) -> list[str]:
    targets = [target for node in tree.body for target in (
        node.targets if isinstance(node, ast.Assign) else
        [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])]
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and name.id.startswith("MAX_")]


def _indenting_dumps(tree: ast.AST) -> list[ast.Call]:
    return [call for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("dump", "dumps")
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "json"
            and any(kw.arg == "indent" for kw in call.keywords)]


def _is_call_to(node: ast.AST, names: tuple[str, ...]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in names


_INVERSES = ("euler_inverse", "inv_pochhammer")
# the public functions of `qseries`, and the series that the q-binomial
# block of `symfunc` builds with them
_SERIES_FUNCTIONS = tuple(name for name, obj in vars(qseries).items()
                          if not name.startswith("_") and callable(obj)
                          and getattr(obj, "__module__", None) == qseries.__name__) + (
    "euler_inverse", "qbinomial", "qmultinomial", "pochhammer_z_expansion",
    "inv_pochhammer_z_expansion")
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Pow)


def _series_operators(tree: ast.AST) -> list[int]:
    """Lines where a call to a series function is an operand of `+`, `-`,
    `*` or `**`, or the value of their augmented assignments: a series is a
    tuple, so `+` concatenates and `* int` repeats without an error.  Also
    the lines where `product` is given an `inv_pochhammer(...)` or
    `euler_inverse(...)` call: a denominator multiplied out factor by
    factor."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            found = any(_is_call_to(side, _SERIES_FUNCTIONS)
                        for side in (node.left, node.right))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, _OPERATORS):
            found = _is_call_to(node.value, _SERIES_FUNCTIONS)
        elif _is_call_to(node, ("product",)):
            found = any(_is_call_to(arg, _INVERSES) for arg in node.args)
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return lines


def test_denominators_are_built_by_inv_pochhammer_product():
    """Outside `qseries.py`, a product of inverse Pochhammers is one
    `inv_pochhammer_product` call, which caches it by its multiset of
    indices; no module multiplies `inv_pochhammer(...)` results itself,
    with `product` or an operator, and no module applies `+`, `-`, `*` or
    `**` to the result of a series call."""
    for chain in ("inv_pochhammer(1, q) * inv_pochhammer(2, q)",
                  "t = t * qseries.inv_pochhammer(a - m, q)",
                  "t *= inv_pochhammer(a, q)",
                  "euler_inverse(q) ** (n - 1)",
                  "qseries.inv_pochhammer(2, q) ** 3",
                  "product(inv_pochhammer(1, q), s)",
                  "qseries.product(s, symfunc.euler_inverse(q))",
                  "qbinomial(4, 2, q) + s",
                  "s - symfunc.pochhammer_z_expansion(2, q)",
                  "2 * product(a, b)",
                  "t += qmultinomial(ks, q)"):
        assert _series_operators(ast.parse(chain)), chain
    for clean in ("inv_pochhammer_product((1, 2), q)", "(total - c) ** 2",
                  "product(inv_pochhammer_product((1, 2), q), s)",
                  "(qmax,) * (n - 1)", "len(qbinomial(4, 2, q)) - 1",
                  "euler_inverse(q)[3] + 1"):
        assert not _series_operators(ast.parse(clean)), clean
    offenders = [f"{path.name}:{line}"
                 for path in sorted(PACKAGE.glob("*.py")) if path.name != "qseries.py"
                 for line in _series_operators(ast.parse(path.read_text()))]
    assert not offenders, "series arithmetic by hand:\n" + "\n".join(offenders)


def _called_names(func: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            names.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
    return names


def _reached_calls(tree: ast.Module, root: str) -> set[str]:
    """Every name called by the module-level function `root` of `tree`, or
    by a module-level function of `tree` that it reaches that way."""
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called, todo = set(), [root]
    while todo:
        for name in _called_names(funcs[todo.pop()]) - called:
            called.add(name)
            if name in funcs:
                todo.append(name)
    return called


def test_yangian_route_runs_no_strip_search():
    """`yangian_decomposition` sums over merged search states; it neither
    enumerates strips nor builds a Schur polynomial per strip, in itself or
    in a helper of `yangian.py` it calls."""
    probe = ast.parse("def f():\n    g()\n\ndef g():\n    strips.reduced_strips(1, 0, 2)\n")
    assert "reduced_strips" in _reached_calls(probe, "f")
    called = _reached_calls(ast.parse((PACKAGE / "yangian.py").read_text()),
                            "yangian_decomposition")
    assert "_close_run" in called
    assert not called & {"reduced_strips", "strip_schur", "weight_projection", "energy",
                         "elementary"}


def test_rank_2_yangian_route_walks_no_partition():
    """`sl2_yangian_decomposition` sums over part sizes; neither it nor a
    helper of `yangian.py` it calls enumerates partitions or builds a
    module's `SymPoly`.  Nor does it reach the q-series products, whose
    identity sum_m h_m t^m = 1/((1 - t x_1)(1 - t x_2)) would make it the
    fermionic spinon form and end its independence of that route."""
    walk = {"partitions_of", "sl2_hw_character", "weight_projection", "complete"}
    series = {"inv_pochhammer", "inv_pochhammer_product", "product",
              "sl2_fermionic_character"}
    probe = ast.parse("def sl2_yangian_decomposition():\n    f()\n\n"
                      "def f():\n    g()\n\ndef g():\n    sl2_hw_character(lam, 2)\n")
    assert _reached_calls(probe, "sl2_yangian_decomposition") & walk == {"sl2_hw_character"}
    called = _reached_calls(ast.parse((PACKAGE / "yangian.py").read_text()),
                            "sl2_yangian_decomposition")
    assert "_packed_h" in called
    assert not called & walk
    assert not called & series


def test_every_tableau_count_walks_horizontal_strips():
    """The `sst` route of `schur_skew`, `skew_kostka` and `gz_schemes` build
    their chains from `partitions.horizontal_strips`, the package's one
    enumerator of horizontal strips, in themselves or in a helper of their
    module."""
    for module, root in (("symfunc.py", "schur_skew"), ("symfunc.py", "skew_kostka"),
                         ("symfunc.py", "gz_schemes")):
        tree = ast.parse((PACKAGE / module).read_text())
        assert "horizontal_strips" in _reached_calls(tree, root), root


def _named(tree: ast.AST):
    """Every name read in `tree`, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and each method
    of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_is_used_in_src():
    """Each module-level function and each method in the package is named
    somewhere in it outside its own body, so no helper that only the tests
    call stays in `src/` (those live in `tests/oracles.py`).  Every module
    counts, the package root included, which re-exports nothing.  Exempt are
    dunder methods, which the language calls.  The check matches names
    only: a method is taken as used when any attribute of that name is
    read, so it cannot see an unused method whose name another class also
    uses (`size`, `is_zero`)."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    assert trees
    mentions = Counter(name for tree in trees for name in _named(tree))
    unused = [qualname for tree in trees for qualname, node in _definitions(tree)
              if not (node.name.startswith("__") and node.name.endswith("__"))
              and mentions[node.name] == Counter(_named(node))[node.name]]
    assert not unused, "defined but never named in src/:\n" + "\n".join(unused)


def test_verify_checks_are_module_level_functions():
    """Each case of `verify.py` runs its check as `check(**params)`, so no
    check is a closure or a default-argument lambda that could run inputs
    other than the params its report prints: the module has no nested
    function and no lambda but the sort key of `run_cases`."""
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    top = {node for node in tree.body if isinstance(node, ast.FunctionDef)}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node not in top]
    lambdas = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Lambda)]
    assert not nested, f"nested functions at lines {nested}"
    assert len(lambdas) == 1, f"lambdas at lines {lambdas}"


def _tuple_of_ints(value) -> bool:
    return type(value) is tuple and all(type(part) is int for part in value)


def test_a_partition_is_a_tuple():
    """`partitions.py` defines no class: a partition is the tuple of its
    parts, a skew shape the pair (outer, inner) and a GZ scheme the tuple of
    its rows.  Every function that hands one out gives a tuple of ints."""
    tree = ast.parse((PACKAGE / "partitions.py").read_text())
    assert not [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    given = {
        "partition": [partition([3, 1, 0]), partition(()), partition(iter([2, 2]))],
        "conjugate": [conjugate((3, 1)), conjugate(())],
        "partitions_of": list(partitions_of(5)) + list(partitions_of(0)),
        "horizontal_strips": [rho for rho, _ in horizontal_strips((2, 1, 0), (3, 2, 1))],
        "strips.shape": [part for cols in ((2, 1, 3), (1,), ())
                         for part in strips.shape(cols)],
        "ribbon_expansion": [nu for rows in ((1, 2, 1), (3,), ())
                             for nu in ribbon_expansion(rows)],
        "gz_schemes": [row for scheme in gz_schemes([3, 1], [1], 3, 1) for row in scheme],
    }
    for name, values in given.items():
        assert values, name
        assert all(_tuple_of_ints(value) for value in values), (name, values)


def test_a_border_strip_is_a_tuple():
    """`strips.py` defines no class, and no module names the deleted strip
    class: a border strip is the tuple of its column heights, with its rank
    kept apart.  Every function that hands one out gives a tuple of ints,
    at two ranks (`sl2_partition_to_strip`, which has one, at two
    inputs)."""
    tree = ast.parse((PACKAGE / "strips.py").read_text())
    assert not [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert not [path.name for path in PACKAGE.glob("*.py")
                if "BorderStrip" in path.read_text()]
    given = {
        "strip": [strips.strip([2, 1], n) for n in (2, 3)],
        "from_rows": [strips.from_rows([1, 0, 2], n) for n in (2, 3)],
        "transpose": [strips.transpose(cols) for cols in ((2, 1, 3), ())],
        "reduce": [strips.reduce((1, n), n) for n in (2, 3)],
        "enumerate_border_strips": [cols for n in (2, 3)
                                    for cols in strips.enumerate_border_strips(n, 4, False)],
        "rapidity_to_strip": [strips.rapidity_to_strip(strips.rapidity(n, 0, [2], 3), n)
                              for n in (2, 3)],
        "motif_to_strip": [strips.motif_to_strip("0010|", n) for n in (2, 3)],
        "modes_to_strip": [strips.modes_to_strip([0, 0, 1, 2], n) for n in (2, 3)],
        "sl2_partition_to_strip": [strips.sl2_partition_to_strip(lam, 3)
                                   for lam in ((2, 1), ())],
    }
    for name, values in given.items():
        assert values, name
        assert all(_tuple_of_ints(value) for value in values), (name, values)


def test_a_rapidity_sequence_is_its_motif_text():
    """No file of the package or its tests names the deleted sequence class
    or its helpers (the names are spelled in pieces here, so that this file
    does not), and every function that hands out a sequence gives its text,
    a `str` that ends in '|', at two ranks."""
    deleted = ["Rapidity" + "Seq", "vacuum_" + "rapidities",
               "motif_to_" + "rapidity", "rapidity_to_" + "motif"]
    named = [(path.name, name) for path in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]
             for name in deleted if name in path.read_text()]
    assert not named
    given = {
        "strip_to_rapidity": [strips.strip_to_rapidity((2, 1), n) for n in (2, 3)],
        "rapidity": [strips.rapidity(n, 1, [1, 3], 4) for n in (2, 3)],
        "motif": [strips.motif("0110|", n) for n in (3, 4)],
    }
    for name, values in given.items():
        assert values, name
        assert all(type(text) is str and text.endswith("|") for text in values), (
            name, values)


def test_a_character_table_is_a_dict_of_tuple_rows():
    """`affine.py` defines no class, and no module names the deleted table
    class: a character table is the dict from the dominant weight of each
    Weyl orbit to its row.  Every `char` kind builds, at two points, a dict
    whose keys are int tuples of length n - 1 and whose values are tuples
    of qmax + 1 ints, none of them all zero."""
    tree = ast.parse((PACKAGE / "affine.py").read_text())
    assert not [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert not [path.name for path in PACKAGE.glob("*.py")
                if "CharacterTable" in path.read_text()]
    for kind in CHAR_KINDS:
        rank_2 = kind not in ("bosonic", "yangian")
        for n, k, qmax in ((2, 0, 6), (2, 1, 5)) if rank_2 else ((3, 2, 4), (5, 1, 2)):
            table = _build_table(kind, n, k, qmax)
            assert type(table) is dict and table, (kind, n, k, qmax)
            for key, row in table.items():
                assert _tuple_of_ints(key) and len(key) == n - 1, (kind, key)
                assert _tuple_of_ints(row) and len(row) == qmax + 1 and any(row), (kind, row)
