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
calls that class, and the benchmark's ``bind(fn, ...)`` is a call of
``fn``. A ``**kwargs`` forward of the enclosing function's own ``**``
parameter passes the keywords that function's callers pass; any other
``**mapping`` passes every parameter. A parameter no caller sets is a
second configuration only tests reach.

Dataclass fields are options too: every field with a default of a
public ``@dataclass`` (``default_factory`` and ``init=False`` fields
aside) must be set by some call there — a call of the class by
keyword, by position in field order or through a forward, or a
``replace(obj, field=...)``. A field that ``src/repro`` code other
than its own class's ``__post_init__`` assigns (an attribute or item
store, an in-place operator, an ``.append``-style call, ``setattr``) is
state, not an option, and is not scanned.

A name with no caller must be on :data:`ALLOWED` (a method on
:data:`ALLOWED_METHODS`, a parameter on :data:`ALLOWED_PARAMETERS`, a
field on :data:`ALLOWED_FIELDS`) with a one-line reason, and an entry
whose name gained a caller or no longer exists fails too, so the lists
can only shrink with the code.

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

#: Dataclass fields no caller outside tests sets, each with its reason.
ALLOWED_FIELDS = {
    "faults.retry.RetryPolicy.max_attempts":
        "a budget of one attempt is the only way to reach the "
        "retry-budget / jobs_lost path",
    "faults.retry.RetryPolicy.base_backoff_seconds":
        "the retry delay a serving pin's timeline is built on",
    "faults.retry.RetryPolicy.jitter":
        "no-jitter backoff, whose delays the serving pins check exactly",
    "rns.decompose.WordDecomp.group_size":
        "the grouped digits, parameter-set data once the ROADMAP digit "
        "item (HEAX's dnum) lands",
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


def _forwarded(fn: ast.FunctionDef, owner: dict[int, str],
               keyword: ast.keyword) -> tuple[str, frozenset[str]] | None:
    """``(called as, named parameters)`` of ``fn`` when the ``**name``
    ``keyword`` forwards ``fn``'s own ``**`` parameter; ``None`` when it
    is any other mapping, which may hold any keyword."""
    if (fn is None or fn.args.kwarg is None
            or getattr(keyword.value, "id", None) != fn.args.kwarg.arg):
        return None
    args = fn.args
    named = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    called_as = (owner.get(id(fn), fn.name) if fn.name == "__init__"
                 else fn.name)
    return called_as, frozenset(named)


def _calls(trees) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Every call under ``trees``, by the callee's bare name: the number
    of positional arguments before any ``*args``, the keywords, and
    whether a ``**mapping`` passes everything else. A ``**kwargs``
    forward of the enclosing function's own ``**`` parameter passes the
    keywords that function's callers pass (less its named parameters);
    any other ``**mapping`` passes everything."""
    raw: dict[str, list] = {}
    for tree in trees:
        aliases = _aliases(tree)
        owner = {id(sub): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 for sub in ast.walk(node)}
        enclosing = {id(sub): node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     for sub in ast.walk(node) if sub is not node}
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
            forwards = [_forwarded(enclosing.get(id(node)), owner, k)
                        for k in node.keywords if k.arg is None]
            raw.setdefault(name, []).append((
                positional, {k.arg for k in node.keywords if k.arg},
                forwards))

    def expand(named: set[str], forwards: list,
               seen: frozenset[str]) -> tuple[set[str], bool]:
        """The keywords one call passes, with its forwards followed to
        the forwarder's callers, and whether it passes everything."""
        keywords, everything = set(named), False
        for forward in forwards:
            if forward is None:
                everything = True
                continue
            forwarder, own = forward
            if forwarder in seen:
                continue
            for _, more_named, more_forwards in raw.get(forwarder, ()):
                more, every = expand(more_named, more_forwards,
                                     seen | {forwarder})
                keywords |= more - own
                everything |= every
        return keywords, everything

    return {name: [(positional, *expand(named, forwards, frozenset()))
                   for positional, named, forwards in found]
            for name, found in raw.items()}


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


#: Methods that change the object they are called on: a field they are
#: called through (``obj.field.append(x)``) is assigned.
MUTATORS = frozenset({"append", "extend", "insert", "setdefault", "update",
                      "add", "pop", "remove", "clear", "discard"})


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if (getattr(target, "id", None)
                or getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_options(modules: dict[str, ast.AST]):
    """``(dotted name, class, field, place)`` of every defaulted field of
    the public dataclasses of ``modules``; ``place`` is the field's index
    among the ``__init__`` fields. ``init=False`` fields take no place,
    and they and ``default_factory`` fields are not options."""
    for module, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, ast.ClassDef)
                    or node.name.startswith("_") or not _is_dataclass(node)):
                continue
            fields = [stmt for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            place = 0
            for stmt in fields:
                value = stmt.value
                spec = ({k.arg: k.value for k in value.keywords}
                        if isinstance(value, ast.Call)
                        and getattr(value.func, "id", None) == "field"
                        else None)
                if spec is not None and getattr(spec.get("init"), "value",
                                                True) is False:
                    continue
                defaulted = (value is not None if spec is None
                             else "default" in spec)
                if defaulted:
                    yield (f"{module}.{node.name}.{stmt.target.id}",
                           node.name, stmt.target.id, place)
                place += 1


def _assigned_fields(modules: dict[str, ast.AST]) -> dict[str, set]:
    """Every attribute ``modules`` assign — attribute and item stores,
    in-place operators, :data:`MUTATORS` calls, ``setattr`` — mapped to
    where: the class whose ``__post_init__`` does it, or ``None``."""
    stores: dict[str, set] = {}
    for tree in modules.values():
        post_init = {id(sub): node.name for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef)
                     for method in node.body
                     if isinstance(method, ast.FunctionDef)
                     and method.name == "__post_init__"
                     for sub in ast.walk(method)}
        for node in ast.walk(tree):
            name = None
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                name = node.attr
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, ast.Store):
                name = getattr(node.value, "attr", None)
            elif isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr",
                                                             None)
                if called in MUTATORS:
                    name = getattr(getattr(func, "value", None), "attr",
                                   None)
                elif called in ("setattr", "__setattr__") \
                        and len(node.args) > 1:
                    name = getattr(node.args[1], "value", None)
            if isinstance(name, str):
                stores.setdefault(name, set()).add(post_init.get(id(node)))
    return stores


def _unset_fields(modules: dict[str, ast.AST], callers) -> set[str]:
    """The options among the dataclass fields of ``modules`` that no
    call in the ``callers`` trees sets (``module.Class.field``): by
    keyword, by position or through a forward, in a call of the class
    or a ``replace(...)``. A field that code other than its own class's
    ``__post_init__`` assigns is state, not an option."""
    calls = _calls(callers)
    stores = _assigned_fields(modules)
    # A replace(obj, ...) sets fields by keyword only.
    replaced = [(0, keywords, everything)
                for _, keywords, everything in calls.get("replace", ())]
    unset = set()
    for dotted, owner, name, place in _dataclass_options(modules):
        if stores.get(name, set()) - {owner}:
            continue
        if not any(name in keywords or everything or count > place
                   for count, keywords, everything
                   in calls.get(owner, []) + replaced):
            unset.add(dotted)
    return unset


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


def test_every_field_option_is_set_or_has_a_reason():
    unset = _unset_fields(_package_modules(), _caller_trees().values())
    missing, stale = _drift(unset, ALLOWED_FIELDS)
    assert missing == [], (
        "dataclass fields only tests set: make them constants, derive "
        "them, or add them to ALLOWED_FIELDS with a reason"
    )
    assert stale == [], (
        "ALLOWED_FIELDS entries that are now set, state or gone"
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
    "kwargs-forward-passes-its-callers-keywords": (
        """
        def f(a, b=1): pass

        def g(a, **kwargs): return f(a, **kwargs)
        """, "g(0, b=2)", set()),
    "kwargs-forward-passes-only-its-callers-keywords": (
        """
        def f(a, b=1): pass

        def g(a, c=1, **kwargs): return f(a, **kwargs)
        """, "g(0, c=2)", {"m.f(b)"}),
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


#: ``(definitions of module m, caller module, unset fields)``: the field
#: rule, one clause per case.
FIELD_CASES = {
    "keyword": ("""
        @dataclass
        class C:
            a: int
            b: int = 1
        """, "C(0, b=2)", set()),
    "positional-in-field-order": ("""
        @dataclass
        class C:
            a: int
            b: int = 1
            c: int = 2
        """, "C(0, 1)", {"m.C.c"}),
    "replace": ("""
        @dataclass(frozen=True)
        class C:
            b: int = 1
        """, "replace(C(), b=2)", set()),
    "kwargs-forward": ("""
        @dataclass
        class C:
            b: int = 1

        def make(**kwargs): return C(**kwargs)
        """, "make(b=2)", set()),
    "unset": ("""
        @dataclass
        class C:
            b: int = 1
        """, "C()", {"m.C.b"}),
    "default-factory-is-skipped": ("""
        @dataclass
        class C:
            b: list = field(default_factory=list)
        """, "C()", set()),
    "field-default-is-an-option": ("""
        @dataclass
        class C:
            b: int = field(default=1)
        """, "C()", {"m.C.b"}),
    "init-false-is-skipped-and-takes-no-place": ("""
        @dataclass
        class C:
            a: int = field(init=False)
            b: int = 1
        """, "C(2)", set()),
    "assigned-by-another-class-is-state": ("""
        @dataclass
        class C:
            b: int = 0

        class D:
            def charge(self, c): c.b += 1
        """, "C()", set()),
    "assigned-by-a-method-is-state": ("""
        @dataclass
        class C:
            b: list = None

            def log(self, x): self.b.append(x)
        """, "C()", set()),
    "assigned-in-its-post-init-is-an-option": ("""
        @dataclass
        class C:
            b: int = 0

            def __post_init__(self):
                if not self.b:
                    self.b = 1
        """, "C()", {"m.C.b"}),
    "not-a-dataclass": ("""
        class C:
            b: int = 1
        """, "C()", set()),
}


@pytest.mark.parametrize("definitions, caller, expected",
                         FIELD_CASES.values(), ids=FIELD_CASES)
def test_field_scan_rule(definitions, caller, expected):
    module = _parse(definitions)
    assert _unset_fields({"m": module}, [module, _parse(caller)]) \
        == expected


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
    assert all(reason.strip() for reason in ALLOWED_FIELDS.values())


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
