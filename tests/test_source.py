"""Static checks on the package source."""

import ast
from pathlib import Path

import linext

SOURCES = sorted(Path(linext.__file__).parent.rglob("*.py"))


def _nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_no_assert_statements():
    # python -O strips assert statements, so checks must raise explicitly
    assert any(path.name == "lattice.py" for path in SOURCES)
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _function_imports(tree) -> list[int]:
    """Lines of ``import`` statements inside a function body."""
    return [
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_no_function_level_imports():
    # the package's modules import one another without a cycle, so every
    # import sits at the top of its module, where a cycle shows at once
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _function_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_function_import_check_sees_the_pattern():
    tree = ast.parse(
        "import math\n"
        "def a():\n    from .lattice import build_lattice\n"
        "class B:\n    def c(self):\n        def d():\n            import json\n"
        "async def e():\n    import os\n"
        "f = lambda: __import__('sys')\n"
    )
    assert sorted(set(_function_imports(tree))) == [3, 7, 9]


def _is_free_bit_scan(node) -> bool:
    """``full & ~mask``, in either order: every element outside a set."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    return any(
        isinstance(a, ast.Name)
        and a.id == "full"
        and isinstance(b, ast.UnaryOp)
        and isinstance(b.op, ast.Invert)
        for a, b in ((node.left, node.right), (node.right, node.left))
    )


def test_no_free_bit_scans():
    # lattice passes walk the addable sets of the one successor kernel
    # instead of testing every element outside the ideal
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if path.name == "lattice.py" and _is_free_bit_scan(node)
    ]
    assert found == []


def test_free_bit_scan_check_sees_the_pattern():
    tree = ast.parse("full & ~mask\n~ideal & full\nlater & ~new\nfull & mask")
    found = [_is_free_bit_scan(stmt.value) for stmt in tree.body]
    assert found == [True, True, False, False]


def _name_of(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


#: Calls that draw a chain slot.
DRAW_CALLS = {"getrandbits", "randrange"}


def _draw_sites(tree) -> list[int]:
    """Lines that call or bind a slot draw (``getrandbits`` or ``randrange``)."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and _name_of(node) in DRAW_CALLS
    ]


#: Calls that take one chain step, or draw for one.
STEP_CALLS = {"mc_step", "random"} | DRAW_CALLS


def _step_loops(tree) -> list[int]:
    """Lines of loops that step the chain themselves instead of calling the kernel."""
    return [
        loop.lineno
        for loop in ast.walk(tree)
        if isinstance(loop, (ast.For, ast.While))
        and any(
            isinstance(node, ast.Call) and _name_of(node.func) in STEP_CALLS
            for node in ast.walk(loop)
        )
    ]


def _tree(name: str):
    (path,) = [path for path in SOURCES if path.name == name]
    return ast.parse(path.read_text(), filename=str(path))


def test_one_mc_step_kernel():
    # every chain run draws its slots in mcmc._advance and nowhere else
    tree = _tree("mcmc.py")
    sites = _draw_sites(tree)
    assert len(sites) == 1
    (kernel,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_advance"
    ]
    assert kernel.lineno <= sites[0] <= kernel.end_lineno
    assert _step_loops(_tree("cli.py")) == []


def test_mc_kernel_checks_see_the_pattern():
    tree = ast.parse(
        "i = rng.randrange(n)\n"
        "draw = state.rng.randrange\n"
        "bits = state.rng.getrandbits\n"
        "for _ in range(k):\n    mcmc.mc_step(state)\n"
        "while True:\n    if rng.random() < 0.5:\n        break\n"
        "for _ in range(k):\n    mcmc._advance(state, s, 0)\n"
        "while i >= n:\n    i = rng.getrandbits(9)\n"
    )
    assert sorted(_draw_sites(tree)) == [1, 2, 3, 12]
    assert sorted(_step_loops(tree)) == [4, 6, 11]


def _matmul_sites(tree) -> list[int]:
    """Lines with a ``@`` product or a ``matmul`` name."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, (ast.Name, ast.Attribute)) and _name_of(node) == "matmul")
    ]


def test_no_dense_products_in_poset():
    # closure checks and reductions run on bitsets, never a cubic product
    assert _matmul_sites(_tree("poset.py")) == []


def test_dense_product_check_sees_the_pattern():
    tree = ast.parse("c = a @ b\nnp.matmul(a, b)\nf = matmul\nd = a * b\n")
    assert sorted(_matmul_sites(tree)) == [1, 2, 3]


def _enclosing(tree, test) -> list[str | None]:
    """The innermost function around each node that passes ``test``, in order."""
    found: list[str | None] = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if test(child):
                found.append(fn)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            visit(child, inner)

    visit(tree, None)
    return found


def _callers(tree, name: str) -> list[str | None]:
    """The innermost enclosing function of every call to ``name``, in order."""
    return _enclosing(tree, lambda node: isinstance(node, ast.Call) and _name_of(node.func) == name)


def test_one_lattice_kernel_per_regime():
    # the array regime merges each level's ideals in _array_levels, one
    # sort of each chunk's edges by target key and one insert per chunk
    # (the sweep sorts its edges by element, and nothing else sorts);
    # the dict regime grows addable sets in _walk, and the sampler's draw
    # walks index tables over the lattice's stored edges on either kernel,
    # so only _walk grows addable sets; a dict lattice is walked once,
    # when it is built, a constrained count is one more walk, and the cwsig
    # stream draws its split ideals in _walk's order
    tree = _tree("lattice.py")
    assert _callers(tree, "unique") == []
    assert _callers(tree, "argsort") == ["_array_levels", "sweep"]
    assert _callers(tree, "insert") == ["_array_levels"]
    assert sorted(set(_callers(tree, "_grow"))) == ["_walk"]
    walks = [fn for path in SOURCES for fn in _callers(ast.parse(path.read_text()), "_walk")]
    assert sorted(walks) == ["__init__", "_down_pass", "random_cwsig_instance"]


def test_kernel_regime_check_sees_the_pattern():
    tree = ast.parse(
        "def a():\n    np.unique(x)\n"
        "def b():\n    def draw():\n        _grow(1, 2, 3, [])\n    unique(y)\n"
        "_grow(0, 0, 0, [])\n"
    )
    assert _callers(tree, "unique") == ["a", "b"]
    assert _callers(tree, "_grow") == ["draw", None]


def test_no_validated_round_trips():
    # the package closes its own posets once, through Poset.from_covers or,
    # when closed by construction, Poset._closed; the checking constructor
    # Poset(labels, lt) is for matrices from outside
    found = [
        f"{path.name}:{fn}"
        for path in SOURCES
        for fn in _callers(ast.parse(path.read_text(), filename=str(path)), "Poset")
    ]
    assert found == []


def test_validated_round_trip_check_sees_the_pattern():
    tree = ast.parse(
        "def a(labels, lt):\n    return Poset(labels, lt)\n"
        "def b(x, y):\n    return poset.Poset(x, y)\n"
        "Poset._closed(labels, lt)\nPoset.from_covers(labels, covers)\n"
        "TwoChainPoset(1, 2, cross, p)\nPoset(labels, lt)\n"
    )
    assert _callers(tree, "Poset") == ["a", "b", None]


def _string_dispatch(tree, limit: int = 3) -> list[str]:
    """Functions that compare one name with more than ``limit`` string
    constants through ``==``: an if/elif chain a lookup table should hold."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        per_name: dict[str, int] = {}
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and isinstance(node.ops[0], ast.Eq)
            ):
                continue
            for a, b in ((node.left, node.comparators[0]), (node.comparators[0], node.left)):
                if (
                    isinstance(a, ast.Name)
                    and isinstance(b, ast.Constant)
                    and isinstance(b.value, str)
                ):
                    per_name[a.id] = per_name.get(a.id, 0) + 1
        found += [f"{fn.name}:{name}" for name, k in per_name.items() if k > limit]
    return found


def test_no_string_dispatch_chains():
    # drivers name their suites and families in one table each
    found = [
        f"{path.name}:{hit}"
        for path in SOURCES
        for hit in _string_dispatch(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_string_dispatch_check_sees_the_pattern():
    tree = ast.parse(
        "def a(name):\n"
        "    if name == 'x':\n        pass\n    elif name == 'y':\n        pass\n"
        "    elif 'z' == name:\n        pass\n    elif name == 'w':\n        pass\n"
        "def b(kind, k):\n"
        "    if kind == 'p':\n        pass\n    if kind == 'q':\n        pass\n"
        "    if kind == 'r' or k == 's' or k == 't':\n        pass\n"
        "    if kind != 'u' and k == 1 and k == 2 and k == 3 and k == 4:\n        pass\n"
    )
    assert _string_dispatch(tree) == ["a:name"]


def _add_sites(tree, method: str) -> list[str | None]:
    """The function around each use of ``add.<method>`` (None at module level)."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Attribute)
                and child.attr == method
                and _name_of(child.value) == "add"
            ):
                sites.append(owner)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, inner)

    visit(tree, None)
    return sites


def test_one_accumulation_kernel():
    # every count pass of the array kernel (the build's down pass, the up
    # pass and the masked pass) sums along edges in lattice._segment_sums,
    # so a new pass cannot fork a second accumulation kernel; no add.at is
    # left, and the only other segment sum adds the sweep's edge weights
    found = {
        method: [
            (path.name, owner)
            for path in SOURCES
            for owner in _add_sites(ast.parse(path.read_text(), filename=str(path)), method)
        ]
        for method in ("at", "reduceat")
    }
    assert found["at"] == []
    assert found["reduceat"] == [("lattice.py", "_segment_sums"), ("lattice.py", "sweep")]
    assert sorted(_callers(_tree("lattice.py"), "_segment_sums")) == ["__init__", "_array_levels", "masked"]


def test_accumulation_check_sees_the_pattern():
    tree = ast.parse(
        "def _gather(s, i, w):\n    np.add.at(s, i, w)\n"
        "def up(s, i, w):\n    for _ in i:\n        numpy.add.at(s, i, w)\n"
        "class A:\n    def sweep(self):\n        acc = np.add.at\n"
        "def low(s, i, w):\n    np.minimum.at(s, i, w)\n    np.add.reduceat(w, i)\n"
        "np.add.at(s, i, w)\n"
    )
    assert _add_sites(tree, "at") == ["_gather", "up", "sweep", None]
    assert _add_sites(tree, "reduceat") == ["low"]


def _lazy_members(tree) -> list[str]:
    """Where ``cached_property`` is named, as the dotted classes and functions around it."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if _name_of(child) == "cached_property":
                found.append(".".join(path))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path + [child.name] if named else path)

    visit(tree, [])
    return found


def test_no_lazy_copies_of_the_lattice():
    # a lattice answers, it does not expose its ideals: the sampler's index
    # tables are its one lazily built member, so no mask-keyed copy of the
    # ideals or their counts comes back as a view built on first read
    assert sorted(_lazy_members(_tree("lattice.py"))) == ["DownsetLattice._tables", "PositionDistribution.probs"]


def test_lazy_member_check_sees_the_pattern():
    tree = ast.parse(
        "import functools\nfrom functools import cached_property\n"
        "class A:\n    @functools.cached_property\n    def b(self):\n        return 1\n"
        "    @cached_property\n    def c(self):\n        return 2\n"
        "    d = functools.cached_property(lambda self: 3)\n"
        "    @property\n    def e(self):\n        return 4\n"
        "class F:\n    class G:\n        @cached_property\n        def h(self):\n            return 5\n"
    )
    assert sorted(_lazy_members(tree)) == ["A", "A.b", "A.c", "F.G.h"]


def _is_kahn_loop(node) -> bool:
    """``for i in order: ... order.append(j)``: a queue read while it grows."""
    if not (isinstance(node, ast.For) and isinstance(node.iter, ast.Name)):
        return False
    return any(
        isinstance(call, ast.Call)
        and _name_of(call.func) == "append"
        and isinstance(call.func, ast.Attribute)
        and _name_of(call.func.value) == node.iter.id
        for call in ast.walk(node)
    )


def _subscripted(node) -> str | None:
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return node.value.id
    return None


def _is_reach_loop(node) -> bool:
    """A loop that ORs entries of a table into the entries it writes there:
    a closure, each element's reach built from reaches already found."""
    if not isinstance(node, (ast.For, ast.While)):
        return False
    written, ored = set(), set()
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            written |= {_subscripted(t) for t in child.targets}
        elif isinstance(child, ast.AugAssign):
            written.add(_subscripted(child.target))
            if isinstance(child.op, ast.BitOr):
                ored |= {_subscripted(x) for x in ast.walk(child.value)}
    return bool((written & ored) - {None})


def test_one_closure_routine():
    # the package closes an order with one Kahn loop, in poset._kahn_order,
    # and one reach loop, in poset._reach, for transitive_closure and
    # Poset.from_covers (whose predecessors _pred_masks reaches on first use);
    # transitive_closure only checks the matrix handed to Poset, and every
    # order the package generates, augmented_poset's too, is closed by
    # from_covers
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    assert [fn for tree in trees for fn in _callers(tree, "transitive_closure")] == ["__init__"]
    assert [fn for tree in trees for fn in _enclosing(tree, _is_kahn_loop)] == ["_kahn_order"]
    assert [fn for tree in trees for fn in _enclosing(tree, _is_reach_loop)] == ["_reach"]
    assert sorted(fn for tree in trees for fn in _callers(tree, "_kahn_order")) == [
        "from_covers",
        "transitive_closure",
    ]
    assert sorted(fn for tree in trees for fn in _callers(tree, "_reach")) == [
        "_pred_masks",
        "from_covers",
        "transitive_closure",
    ]


def test_closure_routine_checks_see_the_pattern():
    tree = ast.parse(
        "def kahn(out, order):\n    for i in order:\n        for j in out[i]:\n"
        "            order.append(j)\n"
        "def reach(order, gen, succ):\n    for i in reversed(order):\n"
        "        for j in gen[i]:\n            succ[i] |= succ[j] | 1 << j\n"
        "def close(order, gen):\n    reach = [0] * len(gen)\n    for i in order:\n"
        "        closed, rest = 0, gen[i]\n        while rest:\n"
        "            closed |= reach[rest.bit_length() - 1]\n            rest &= ~closed\n"
        "        reach[i] = closed\n"
        "def reduce(succ, covers):\n    for x, s in enumerate(succ):\n"
        "        beyond = 0\n        while s:\n            beyond |= succ[x]\n            s = 0\n"
        "        covers[x] = beyond\n"
        "def other(order, seen):\n    for i in order:\n        seen.append(i)\n"
        "    stack = [0]\n    while stack:\n        stack.append(stack.pop())\n"
    )
    assert _enclosing(tree, _is_kahn_loop) == ["kahn"]
    assert sorted(set(_enclosing(tree, _is_reach_loop))) == ["close", "reach"]


def _matrix_or_recursion(fn) -> list[int]:
    """Lines in ``fn`` that read an ``lt`` matrix, define a function or call ``fn``."""
    return [
        node.lineno
        for node in ast.walk(fn)
        if (isinstance(node, ast.Attribute) and node.attr == "lt")
        or (node is not fn and isinstance(node, (ast.FunctionDef, ast.Lambda)))
        or (isinstance(node, ast.Call) and _name_of(node.func) == fn.name)
    ]


def test_comparability_is_read_off_the_bitsets():
    # the width, π, is_chain and balance's pairs read _succ_masks and
    # _incomp_masks, and the matching runs on an explicit stack, so no
    # n-by-n matrix is built and no chain is too long for the interpreter
    readers = {"comparability_profile", "_max_matching", "is_chain", "balance"}
    found = {
        node.name: _matrix_or_recursion(node)
        for path, node in _nodes()
        if path.name in ("poset.py", "stats.py")
        and isinstance(node, ast.FunctionDef)
        and node.name in readers
    }
    assert found == dict.fromkeys(readers, [])


def test_matrix_and_recursion_check_sees_the_pattern():
    tree = ast.parse(
        "def f(p):\n    return p.lt | p.lt.T\n"
        "def g(u):\n    return g(u - 1)\n"
        "def h(u):\n    def inner():\n        return u\n    return inner()\n"
        "def k(masks):\n    return not any(masks)\n"
    )
    assert [_matrix_or_recursion(fn) for fn in tree.body] == [[2, 2], [4], [6], []]
