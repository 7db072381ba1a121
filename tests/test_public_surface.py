"""Every public name, method and option in ``src/repro`` has a caller
outside tests.

An AST scan of ``src/repro`` lists the public (no leading underscore)
module-level functions and classes, and the public methods of those
classes (properties are attributes, not methods, and are left out).
Each must be referred to by code in ``src/repro`` outside its own
definition, in ``benchmarks/`` or in ``examples/``. A module-level name
is referred to by a name or an attribute access; a method only by an
attribute access (so ``obj.describe()`` counts for every method called
``describe``, and a local variable called ``describe`` counts for none).
An ``import ... as alias`` counts through its alias, and the benchmark's
``resolve("repro.x", "name")`` counts for ``name``. Package ``__init__``
re-exports (the imports and ``__all__``) are not references, and tests
are not callers. A name used only by code elsewhere in its own module is
used: the module runs it.

The same holds for options: every defaulted parameter of a public
function, method, classmethod or ``__init__`` must be passed, by keyword
or by position, by some call in those places. A call is matched by the
callee's bare name, as references are; ``cls(...)`` inside a class
calls that class, a ``**kwargs`` forward passes every parameter, and
the benchmark's ``bind(fn, ...)`` is a call of ``fn``. A parameter no
caller sets is a second configuration only tests reach.

A name with no caller must be on :data:`ALLOWED` (a method on
:data:`ALLOWED_METHODS`, a parameter on :data:`ALLOWED_PARAMETERS`)
with a one-line reason, and an entry whose name gained a caller or no
longer exists fails too, so the lists can only shrink with the code.

Two checks keep the import surface honest as names go: every
``__all__`` in ``src/repro`` lists only attributes its module has, and
the fault types have one import path, ``repro.faults``.
"""

import ast
import importlib
import textwrap
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = (ROOT / "benchmarks", ROOT / "examples")

#: Public names kept without a caller outside tests, each with its reason.
ALLOWED = {
    "fv.reference.TextbookFv": "big-integer oracle of the RNS FV engine",
    "fv.reference.decrypt_with_noise_bigint":
        "big-integer oracle of RNS decryption",
    "nttmath.ntt.intt_iterative": "textbook oracle of the batched inverse NTT",
    "hw.block_pipeline.simulate_block_pipeline":
        "stepped oracle of the block-pipeline closed form",
    "rns.lift.hps_quotient":
        "Fig. 6 Block 3 quotient the limb path is tested against",
}

#: Public methods kept without a caller outside tests, each with its
#: reason.
ALLOWED_METHODS = {
    "fv.reference.TextbookRelinKey.key_bytes":
        "big-integer oracle of the relinearisation key size",
    "fv.reference.TextbookFv.ciphertext_from_rns":
        "moves an engine ciphertext into the big-integer oracle",
    "hw.ntt_unit.DualCoreNttUnit.run_strict":
        "stepped oracle of the NTT unit's fast executor",
}

#: Defaulted parameters no caller outside tests passes, each with its
#: reason.
ALLOWED_PARAMETERS = {
    "fv.reference.TextbookFv(seed)":
        "the big-integer oracle's key stream, matched to an engine seed",
    "hw.block_pipeline.simulate_block_pipeline(intervals)":
        "the stepped oracle's initiation intervals, where the closed "
        "form's exactness bound is tested",
    "hw.ntt_unit.DualCoreNttUnit.run_strict(inverse)":
        "the stepped oracle of the inverse transform",
    "cli.main(argv)": "the console entry reads sys.argv; tests pass argv",
    "fv.scheme.FvContext.relin_keygen(decomposition)":
        "the digit decomposition, parameter-set data once the ROADMAP "
        "digit item (HEAX's dnum) lands",
}


def _modules_with_all() -> list[str]:
    """Dotted names of the ``src/repro`` modules that assign ``__all__``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if any(isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in node.targets)
               for node in tree.body):
            parts = path.relative_to(PACKAGE).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            found.append(".".join(("repro",) + parts))
    return found


def _resolved(node: ast.Call) -> list[str]:
    """The attribute names a ``resolve("repro.x", "a", ...)`` call
    looks up by string (the benchmark's probes find targets so)."""
    if getattr(node.func, "id", None) != "resolve":
        return []
    return [arg.value for arg in node.args[1:]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]


def _aliases(tree: ast.AST) -> dict[str, str]:
    """``import ... as alias`` under ``tree``: alias -> imported name."""
    return {a.asname: a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names if a.asname}


def _references(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each name is read under ``tree``: as a name or an
    attribute, and as an attribute alone (an imported alias counts for
    the name it imports; a ``resolve`` string is an attribute read)."""
    names: Counter = Counter()
    attrs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Call):
            attrs.update(_resolved(node))
    for alias, name in _aliases(tree).items():
        names[name] += names[alias]
    return names + attrs, attrs


def _is_property(node: ast.FunctionDef) -> bool:
    """A ``@property``, ``@cached_property`` or ``@x.setter`` method."""
    for decorator in node.decorator_list:
        name = (decorator.id if isinstance(decorator, ast.Name)
                else getattr(decorator, "attr", None))
        if name in ("property", "cached_property", "setter", "deleter"):
            return True
    return False


def _caller_trees() -> dict[Path, ast.AST]:
    """Every module a caller may live in: ``src/repro``, the benchmark
    and the examples."""
    paths = sorted(PACKAGE.rglob("*.py"))
    for directory in CALLER_DIRS:
        paths += sorted(directory.rglob("*.py"))
    return {path: ast.parse(path.read_text()) for path in paths}


def _unused_public_names() -> tuple[set[str], set[str]]:
    """Dotted names of the public module-level names and of the public
    methods that nothing outside tests refers to."""
    trees = _caller_trees()
    modules = {path: tree for path, tree in trees.items()
               if path.is_relative_to(PACKAGE)}
    refs = {path: _references(tree) for path, tree in trees.items()}

    def used(path: Path, node: ast.AST, method: bool) -> bool:
        name = node.name
        pick = 1 if method else 0
        # Reads inside the definition itself (recursion, its own type
        # in an annotation) are not uses.
        inside = sum(isinstance(n, ast.Attribute) and n.attr == name
                     or not method and isinstance(n, ast.Name)
                     and n.id == name
                     for n in ast.walk(node))
        return (refs[path][pick][name] > inside
                or any(counts[pick][name] for other, counts in refs.items()
                       if other != path))

    names, methods = set(), set()
    for path, tree in modules.items():
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if not used(path, node, method=False):
                names.add(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (isinstance(method, ast.FunctionDef)
                        and not method.name.startswith("_")
                        and not _is_property(method)
                        and not used(path, method, method=True)):
                    methods.add(f"{module}.{node.name}.{method.name}")
    return names, methods


def _package_modules() -> dict[str, ast.AST]:
    """Every ``src/repro`` module's tree, by its dotted name below
    ``repro``."""
    return {".".join(path.relative_to(PACKAGE).with_suffix("").parts):
            ast.parse(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py"))}


def _public_callables(modules: dict[str, ast.AST]):
    """``(dotted name, called as, definition, bound)`` of every public
    function, ``__init__`` (named by its class) and public method of
    ``modules``; ``bound`` when the first parameter is ``self`` or
    ``cls``."""
    for module, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node.name, node, False
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) \
                        or _is_property(method):
                    continue
                bound = not any(getattr(d, "id", None) == "staticmethod"
                                for d in method.decorator_list)
                if method.name == "__init__":
                    yield f"{module}.{node.name}", node.name, method, True
                elif not method.name.startswith("_"):
                    yield (f"{module}.{node.name}.{method.name}",
                           method.name, method, bound)


def _calls(trees) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Every call under ``trees``, by the callee's bare name: the number
    of positional arguments before any ``*args``, the keywords, and
    whether a ``**kwargs`` forward passes everything else."""
    calls: dict[str, list] = {}
    for tree in trees:
        aliases = _aliases(tree)
        owner = {id(sub): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if getattr(func, "id", None) == "bind" and args:
                func, args = args[0], args[1:]
            if isinstance(func, ast.Name):
                name = aliases.get(func.id, func.id)
                if name == "cls":
                    name = owner.get(id(node), name)
            elif isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Call) and _resolved(func):
                name = _resolved(func)[-1]
            else:
                continue
            positional = next((i for i, arg in enumerate(args)
                               if isinstance(arg, ast.Starred)), len(args))
            calls.setdefault(name, []).append((
                positional,
                {k.arg for k in node.keywords if k.arg},
                any(k.arg is None for k in node.keywords)))
    return calls


def _unpassed_parameters(modules: dict[str, ast.AST],
                         callers) -> set[str]:
    """The defaulted public parameters of ``modules`` that no call in
    the ``callers`` trees passes (``module.Callable(param)``)."""
    calls = _calls(callers)
    unpassed = set()
    for dotted, called_as, node, bound in _public_callables(modules):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        positional = positional[1:] if bound else positional
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, default in
                      zip(args.kwonlyargs, args.kw_defaults, strict=True)
                      if default is not None]
        for param in defaulted:
            place = (positional.index(param) if param in positional
                     else None)
            if not any(param in keywords or forward
                       or place is not None and count > place
                       for count, keywords, forward
                       in calls.get(called_as, ())):
                unpassed.add(f"{dotted}({param})")
    return unpassed


def _drift(found: set[str],
           allowed: dict[str, str]) -> tuple[list[str], list[str]]:
    """``(found but not allowed, allowed but no longer found)``: both
    must be empty."""
    return sorted(found - allowed.keys()), sorted(allowed.keys() - found)


def test_every_public_name_has_a_caller_or_a_reason():
    unused, _ = _unused_public_names()
    missing, stale = _drift(unused, ALLOWED)
    assert missing == [], (
        "public names only tests reach: delete them, give them a caller, "
        "or add them to ALLOWED with a reason"
    )
    assert stale == [], (
        "ALLOWED entries that now have a caller or no longer exist"
    )


def test_every_public_method_has_a_caller_or_a_reason():
    _, unused = _unused_public_names()
    missing, stale = _drift(unused, ALLOWED_METHODS)
    assert missing == [], (
        "public methods only tests reach: delete them, give them a "
        "caller, or add them to ALLOWED_METHODS with a reason"
    )
    assert stale == [], (
        "ALLOWED_METHODS entries that now have a caller or no longer exist"
    )


def test_every_defaulted_parameter_is_passed_or_has_a_reason():
    unpassed = _unpassed_parameters(_package_modules(),
                                    _caller_trees().values())
    missing, stale = _drift(unpassed, ALLOWED_PARAMETERS)
    assert missing == [], (
        "defaulted parameters only tests set: delete them and the branch "
        "they guard, give them a caller, or add them to "
        "ALLOWED_PARAMETERS with a reason"
    )
    assert stale == [], (
        "ALLOWED_PARAMETERS entries that now have a caller or no longer "
        "exist"
    )


def test_drift_names_both_sides():
    """An entry with no finding is stale; a finding with no entry is
    missing."""
    assert _drift({"m.f(a)", "m.g(b)"}, {"m.g(b)": "kept", "m.h(c)": "old"}) \
        == (["m.f(a)"], ["m.h(c)"])
    assert _drift({"m.f(a)"}, {"m.f(a)": "kept"}) == ([], [])


def _parse(source: str) -> ast.AST:
    return ast.parse(textwrap.dedent(source))


#: ``(definitions of module m, caller module, unpassed parameters)``:
#: the parameter rule, one clause per case.
PARAMETER_CASES = {
    "keyword": ("def f(a, b=1): pass", "f(0, b=2)", set()),
    "positional": ("def f(a, b=1): pass", "f(0, 2)", set()),
    "unpassed": ("def f(a, b=1): pass", "f(0)", {"m.f(b)"}),
    "no-call": ("def f(a, b=1): pass", "", {"m.f(b)"}),
    "star-args-end-the-count": (
        "def f(a, b=1): pass", "f(0, *rest)", {"m.f(b)"}),
    "kwargs-forward": ("def f(a, b=1): pass", "f(0, **options)", set()),
    "keyword-only": (
        "def f(*, a, b=1): pass", "f(a=0)", {"m.f(b)"}),
    "required-is-no-option": ("def f(a, *, b): pass", "f(0, b=1)", set()),
    "private-is-skipped": ("def _f(b=1): pass", "", set()),
    "method-skips-self": (
        """
        class C:
            def go(self, x=1): pass
        """, "obj.go(2)", set()),
    "method-unpassed": (
        """
        class C:
            def go(self, x=1): pass
        """, "obj.go()", {"m.C.go(x)"}),
    "staticmethod-counts-first": (
        """
        class C:
            @staticmethod
            def go(x=1): pass
        """, "C.go(2)", set()),
    "init-by-class-name": (
        """
        class C:
            def __init__(self, x=1): pass
        """, "C(x=2)", set()),
    "cls-call-is-its-class": (
        """
        class C:
            def __init__(self, x=1): pass

            @classmethod
            def make(cls): return cls(2)
        """, "", set()),
    "cls-call-of-another-class": (
        """
        class C:
            def __init__(self, x=1): pass

        class D:
            def __init__(self, x=1): pass

            @classmethod
            def make(cls): return cls(2)
        """, "", {"m.C(x)"}),
    "import-alias": (
        "def f(a, b=1): pass", "from m import f as g\ng(0, b=2)", set()),
    "bind-is-a-call": ("def f(a, b=1): pass", "bind(f, 0, b=2)", set()),
    "bind-positions-skip-the-callee": (
        "def f(a, b=1): pass", "bind(f, 0)", {"m.f(b)"}),
    "resolved-call": (
        "def f(a, b=1): pass", "resolve('repro.m', 'f')(0, 2)", set()),
    "property-is-an-attribute": (
        """
        class C:
            @property
            def size(self, x=1): return x
        """, "", set()),
}


@pytest.mark.parametrize("definitions, caller, expected",
                         PARAMETER_CASES.values(), ids=PARAMETER_CASES)
def test_parameter_scan_rule(definitions, caller, expected):
    module = _parse(definitions)
    assert _unpassed_parameters({"m": module},
                                [module, _parse(caller)]) == expected


def test_a_local_variable_is_no_method_reference():
    both, attrs = _references(_parse("""
        describe = 1
        obj.run(describe)
    """))
    assert both["describe"] == 2 and attrs["describe"] == 0
    assert attrs["run"] == 1


def test_resolved_strings_are_attribute_reads():
    _, attrs = _references(_parse("resolve('repro.x', 'probe', 'inner')"))
    assert attrs["probe"] == attrs["inner"] == 1
    assert attrs["repro.x"] == 0


def test_an_import_alias_reads_its_name():
    both, _ = _references(_parse("""
        from repro.x import helper as h
        h()
    """))
    assert both["helper"] == 1


def test_every_allowed_name_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())
    assert all(reason.strip()
               for reason in ALLOWED_METHODS.values())
    assert all(reason.strip() for reason in ALLOWED_PARAMETERS.values())


@pytest.mark.parametrize("module", _modules_with_all())
def test_all_lists_only_names_the_module_has(module):
    """A stale ``__all__`` entry breaks ``from module import *``."""
    imported = importlib.import_module(module)
    names = list(imported.__all__)
    assert [n for n in names if not hasattr(imported, n)] == []
    assert len(set(names)) == len(names)


def test_fault_names_have_one_import_path():
    import repro.cluster
    import repro.faults

    names = ("FailureReport", "FaultEvent", "FaultKind", "FaultPlan",
             "RetryPolicy")
    assert set(names) <= set(repro.faults.__all__)
    assert [n for n in names if hasattr(repro.cluster, n)] == []
