"""Every public name, method, property and option in ``src/repro`` has
a caller outside tests, and every option varies.

An AST scan of ``src/repro`` lists the public (no leading underscore)
module-level functions and classes, and the public methods and
properties (``@property``, ``@cached_property``; a setter is its
property) of those classes. Each must be referred to by code in
``src/repro`` outside its own definition, in ``benchmarks/`` or in
``examples/``. A module-level name is referred to by a name or an
attribute access; a method or property only by an attribute access
(a local variable called ``describe`` counts for no method). An
``import ... as alias`` counts through its alias, and the benchmark's
``resolve("repro.x", "name")`` counts for ``name``. Package
``__init__`` re-exports (the imports and ``__all__``) are not
references, and tests are not callers. A name used only by code
elsewhere in its own module is used: the module runs it.

Receivers resolve where the class is known. An attribute read
``x.name`` counts only for the methods called ``name`` of the class of
``x``, its bases and its subclasses, when ``x`` is ``self`` (or ``cls``)
in a method of that class, the class itself, a parameter annotated with
a ``src/repro`` class (``C``, ``"C"``, ``C | None``), or a module-level
or local name every binding of which is of one known class:
``ClassName(...)`` or ``ClassName.classmethod(...)`` (a CapWords callee
from outside the package is a class too, so a name bound to
``ContextVar(...)`` reads no method here), a call of a package function
whose return annotation names a ``src/repro`` class,
``dataclasses.replace(x, ...)`` of a known ``x``, or a binary operation
whose left operand's class annotates the dunder it calls (such an
operation is a known receiver itself, too). A binding in terms of its
own name (``x = x + y``) is typed by the name's other bindings. Any
other receiver, and one typed as a ``Protocol``, counts for every method
with that name.

The same holds for options: every defaulted parameter of a public
function, method, classmethod or ``__init__`` must be passed, by keyword
or by position, by some call in those places. A public class without an
``__init__`` of its own is scanned on the one it inherits from its
nearest base in ``src/repro``, private or not, under its own name. A
call is matched by the callee's bare name, whatever its receiver;
``cls(...)`` inside a class calls that class, and the benchmark's
``bind(fn, ...)`` is a call of ``fn``. A ``**kwargs`` forward of the
enclosing function's own ``**`` parameter passes what each call of that
function passes; any other ``**mapping`` passes every parameter. A
parameter no caller sets is a second configuration only tests reach.

Dataclass fields are options too: every field with a default of a
public ``@dataclass`` (``default_factory`` and ``init=False`` fields
aside) must be set by some call there — a call of the class by
keyword, by position in field order or through a forward, or a
``replace(obj, field=...)``. A field that ``src/repro`` code other
than its own class's ``__post_init__`` assigns (an attribute or item
store, an in-place operator, an ``.append``-style call, ``setattr``) is
state, not an option, and is not scanned.

An option must also vary. Every public parameter and dataclass field,
required or defaulted, to which every call gives one value — the same
literal or the same UPPER_CASE constant, a call that leaves a default in
place giving the default — is a constant: it belongs beside its
function. A value a ``*args``, a ``**mapping`` or any other expression
passes varies.

A finding must be on :data:`ALLOWED` (a method or property on
:data:`ALLOWED_METHODS`, an unpassed parameter on
:data:`ALLOWED_PARAMETERS`, an unset field on :data:`ALLOWED_FIELDS`,
a one-value argument on :data:`ALLOWED_ONE_VALUE`) with a one-line
reason, and an entry whose name gained a caller, varies or no longer
exists fails too, so the lists can only shrink with the code. Each rule
has a ``*_CASES`` table that holds it to small modules.

Two checks keep the import surface honest as names go: every
``__all__`` in ``src/repro`` lists only attributes its module has, and
the fault types have one import path, ``repro.faults``.
"""

import ast
import functools
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
    "fv.reference.TextbookFv.encrypt_with":
        "big-integer oracle of encryption under given noise",
    "fv.reference.TextbookFv.relin_keygen":
        "big-integer oracle of the relinearisation key",
    "hw.coprocessor.Coprocessor.rotate":
        "runs compile_rotation's program, which tests hold to "
        "GaloisEngine.apply bit for bit",
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

#: The reason an instrument's constructor takes one value per parameter.
_ONE_INSTRUMENT = ("the engine declares one {}; an instrument's name, help "
                   "and schema are its declaration, not a setting")

#: Parameters and fields every caller outside tests gives one value,
#: each with its reason.
ALLOWED_ONE_VALUE = {
    "nttmath.batch.ntt_broadcast_rows(lazy)": "benchmarks/ledger passes it",
    "rns.lift.lift_hps_ntt(lazy)": "benchmarks/ledger passes it",
    "params.large_ring(n)": "benchmarks/ledger passes it",
    "fv.galois.GaloisEngine.rotation_keygen(steps_list)":
        "benchmarks/ledger passes it",
    **{f"obs.registry.Gauge({p})": _ONE_INSTRUMENT.format("gauge")
       for p in ("name", "help", "labels")},
    **{f"obs.registry.Histogram({p})": _ONE_INSTRUMENT.format("histogram")
       for p in ("name", "help", "buckets")},
}


def _modules_with_all() -> list[str]:
    """Dotted names of the ``src/repro`` modules that assign ``__all__``."""
    return [f"repro.{module}".removesuffix(".__init__")
            for module, tree in _package_modules().items()
            if any(isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "__all__"
                           for t in node.targets)
                   for node in tree.body)]


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


def _references(tree: ast.AST) -> Counter:
    """How often each name is read under ``tree``, as a name or an
    attribute (an imported alias counts for the name it imports; a
    ``resolve`` string is an attribute read)."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Call):
            names.update(_resolved(node))
    for alias, name in _aliases(tree).items():
        names[name] += names[alias]
    return names


def _decorators(node: ast.AST) -> set[str | None]:
    """The bare names of ``node``'s decorators."""
    return {getattr(d, "id", None) or getattr(d, "attr", None)
            for d in getattr(node, "decorator_list", ())}


def _is_property(node: ast.FunctionDef) -> bool:
    """A ``@property``, ``@cached_property`` or ``@x.setter`` method."""
    return bool(_decorators(node)
                & {"property", "cached_property", "setter", "deleter"})


@functools.cache
def _caller_trees() -> dict[Path, ast.AST]:
    """Every module a caller may live in: ``src/repro``, the benchmark
    and the examples, parsed once (the scans only read the trees)."""
    paths = sorted(PACKAGE.rglob("*.py"))
    for directory in CALLER_DIRS:
        paths += sorted(directory.rglob("*.py"))
    return {path: ast.parse(path.read_text()) for path in paths}


def _package_modules() -> dict[str, ast.AST]:
    """Every ``src/repro`` module's tree, by its dotted name below
    ``repro``: the same trees :func:`_caller_trees` holds."""
    return {".".join(path.relative_to(PACKAGE).with_suffix("").parts): tree
            for path, tree in _caller_trees().items()
            if path.is_relative_to(PACKAGE)}


def _name_of(node: ast.AST) -> str | None:
    """The bare name an expression ends in: ``a.b.C`` and ``C[T]`` are
    ``C``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _unwrapped(annotation: ast.AST | None) -> ast.AST | None:
    """An annotation with its quotes and its ``| None`` taken off:
    ``"C | None"`` is ``C``; a union of two types is ``None``."""
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.BinOp) \
            and isinstance(annotation.op, ast.BitOr):
        sides = [side for side in (annotation.left, annotation.right)
                 if getattr(side, "value", 0) is not None]
        return _unwrapped(sides[0]) if len(sides) == 1 else None
    return annotation


#: The method a binary operator calls on its left operand.
DUNDERS = {ast.Add: "__add__", ast.Sub: "__sub__", ast.Mult: "__mul__",
           ast.MatMult: "__matmul__", ast.Div: "__truediv__",
           ast.FloorDiv: "__floordiv__", ast.Mod: "__mod__",
           ast.Pow: "__pow__", ast.LShift: "__lshift__",
           ast.RShift: "__rshift__", ast.BitOr: "__or__",
           ast.BitXor: "__xor__", ast.BitAnd: "__and__"}


class _Classes:
    """The classes of the scanned modules, by bare name: their bases,
    classmethods, annotated returns and family. A class's family is
    itself, its bases and its subclasses, transitively; a receiver of
    that class reads the methods of its whole family."""

    def __init__(self, modules: dict[str, ast.AST]):
        nodes = {node.name: node for tree in modules.values()
                 for node in tree.body if isinstance(node, ast.ClassDef)}
        self.names = set(nodes)
        self._bases = {name: {_name_of(base) for base in node.bases} - {None}
                       for name, node in nodes.items()}
        self._classmethods = {
            name: {m.name for m in node.body
                   if isinstance(m, ast.FunctionDef)
                   and "classmethod" in _decorators(m)}
            for name, node in nodes.items()}
        self._method_returns = {
            name: {m.name: self._returned(m) for m in node.body
                   if isinstance(m, ast.FunctionDef)}
            for name, node in nodes.items()}
        returns: dict[str, set] = {}
        for tree in modules.values():
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    returns.setdefault(node.name, set()).add(
                        self._returned(node))
        #: A package function's scanned return class, by bare name (two
        #: functions of one name must agree).
        self.function_returns = {name: found.pop()
                                 for name, found in returns.items()
                                 if len(found) == 1}
        #: A protocol's implementations need not derive from it, so a
        #: receiver typed as one stays unresolved.
        self.protocols = {name for name, bases in self._bases.items()
                          if "Protocol" in bases}
        self._ancestors: dict[str, frozenset[str]] = {}

    def is_class(self, name: str) -> bool:
        """A scanned class, or a CapWords name (PEP 8's class names)."""
        return name in self.names or (name[:1].isupper()
                                      and not name.isupper())

    def ancestors(self, name: str) -> frozenset[str]:
        if name not in self._ancestors:
            found: set[str] = set()
            for base in self._bases.get(name, ()):
                if base != name:
                    found |= {base} | self.ancestors(base)
            self._ancestors[name] = frozenset(found)
        return self._ancestors[name]

    def family(self, name: str) -> set[str]:
        return ({name} | self.ancestors(name)
                | {other for other in self.names
                   if name in self.ancestors(other)})

    def classmethods(self, name: str) -> set[str]:
        return set().union(*(self._classmethods.get(cls, ())
                             for cls in {name} | self.ancestors(name)))

    def _returned(self, fn: ast.FunctionDef) -> str | None:
        """The scanned class ``fn``'s return annotation names."""
        named = _name_of(_unwrapped(fn.returns))
        return named if named in self.names else None

    def method_returns(self, name: str, method: str) -> str | None:
        """The scanned class ``name.method`` (its own, else a base's)
        annotates as its return."""
        for cls in [name, *sorted(self.ancestors(name))]:
            if method in self._method_returns.get(cls, {}):
                return self._method_returns[cls][method]
        return None


#: Nodes that open a scope: their bodies run in a frame of their own.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _outer(scope: ast.AST) -> list[ast.AST]:
    """The parts of a nested scope that its enclosing scope evaluates:
    decorators, bases, defaults and annotations."""
    if isinstance(scope, ast.ClassDef):
        return scope.decorator_list + scope.bases + scope.keywords
    args = scope.args
    parts = args.defaults + [d for d in args.kw_defaults if d is not None]
    if isinstance(scope, ast.Lambda):
        return parts
    params = (args.posonlyargs + args.args + args.kwonlyargs
              + [a for a in (args.vararg, args.kwarg) if a])
    return (scope.decorator_list + parts
            + [a.annotation for a in params if a.annotation]
            + [scope.returns] * (scope.returns is not None))


def _own_nodes(scope: ast.AST) -> list[ast.AST]:
    """Every node that runs in ``scope``'s own frame. A nested scope is
    listed with its :func:`_outer` parts, but not entered."""
    stack = [scope.body] if isinstance(scope, ast.Lambda) else \
        list(scope.body)
    found = []
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(_outer(node) if isinstance(node, SCOPES)
                     else ast.iter_child_nodes(node))
    return found


def _bindings(scope: ast.AST, nodes: list[ast.AST], classes: _Classes,
              method_of: str | None) -> dict[str, list]:
    """Each name ``scope`` binds, with one entry per binding:
    ``("class", C)`` for the class ``C`` itself (a class statement or an
    imported class), ``("instance", C)`` for the first parameter of a
    method of ``C``, ``("param", annotation)``, ``("value", expression)``
    for a plain assignment, and ``None`` for any other binding."""
    found: dict[str, list] = {}
    if not isinstance(scope, (ast.Module, ast.ClassDef)):
        args = scope.args
        for place, arg in enumerate(args.posonlyargs + args.args
                                    + args.kwonlyargs):
            found.setdefault(arg.arg, []).append(
                ("instance", method_of) if place == 0 and method_of
                else ("param", arg.annotation))
        for arg in (args.vararg, args.kwarg):
            if arg:
                found.setdefault(arg.arg, []).append(None)
    plain = {}
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            plain[id(node.targets[0])] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            plain[id(node.target)] = node.value
    for node in nodes:
        names, how = [], None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names = [node.id]
            how = ("value", plain[id(node)]) if id(node) in plain else None
        elif isinstance(node, ast.ClassDef):
            names, how = [node.name], ("class", node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Global, ast.Nonlocal)):
            names = getattr(node, "names", None) or [node.name]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names = [node.name]
        elif isinstance(node, ast.Import):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                found.setdefault(alias.asname or alias.name, []).append(
                    ("class", alias.name) if classes.is_class(alias.name)
                    else None)
        for name in names:
            found.setdefault(name, []).append(how)
    return found


def _attribute_reads(tree: ast.AST, classes: _Classes):
    """``(attribute, receiver class, line)`` of every attribute read
    under ``tree``, and of every ``resolve`` string. The class is known
    when the receiver is ``self`` (or ``cls``) in a method, a class, a
    parameter annotated with a scanned class, or a name every binding of
    which is of one known class: ``ClassName(...)``,
    ``ClassName.classmethod(...)``, a call of a package function whose
    return annotation names a scanned class, ``replace(x, ...)`` of a
    known ``x``, or a binary operation whose left operand's class
    annotates the dunder it calls (such an operation is a known receiver
    itself). It is ``None`` for any other receiver, and for a
    protocol."""
    reads = []
    #: The binding lists being typed: a name bound in terms of itself
    #: (``x = x + y``) is typed by its other bindings.
    busy: set[int] = set()
    pending = object()

    def lookup(name: str, chain: list) -> tuple[list, list]:
        """The bindings of ``name`` and the scopes they can see."""
        for depth in range(len(chain), 0, -1):
            if name in chain[depth - 1]:
                return chain[depth - 1][name], chain[:depth]
        return [("class", name) if classes.is_class(name) else None], []

    def class_named(expr: ast.AST, chain: list) -> str | None:
        """The class ``expr`` names, when it names one."""
        if isinstance(expr, ast.Attribute):
            return expr.attr if classes.is_class(expr.attr) else None
        if not isinstance(expr, ast.Name):
            return None
        hows, _ = lookup(expr.id, chain)
        named = {how[1] if how and how[0] == "class" else None
                 for how in hows}
        return named.pop() if len(named) == 1 else None

    def instance(how, chain: list):
        """The class of what one binding binds."""
        if how is None:
            return None
        kind, what = how
        if kind in ("class", "instance"):
            return what
        if kind == "param":
            named = class_named(_unwrapped(what), chain)
            return named if named in classes.names else None
        return typed(what, chain)

    def typed(expr: ast.AST, chain: list):
        """The class of what ``expr`` evaluates to, where it is known."""
        if isinstance(expr, ast.Name):
            hows, seen = lookup(expr.id, chain)
            if id(hows) in busy:
                return pending
            busy.add(id(hows))
            found = {instance(how, seen) for how in hows} - {pending}
            busy.discard(id(hows))
            return found.pop() if len(found) == 1 else None
        if isinstance(expr, ast.BinOp):
            left = typed(expr.left, chain)
            if left is None or left is pending:
                return left
            return classes.method_returns(left, DUNDERS[type(expr.op)])
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        # ``replace(x, ...)`` or ``dataclasses.replace(x, ...)``; a
        # ``text.replace(...)`` is no copy of its argument.
        if _name_of(func) == "replace" and expr.args and (
                isinstance(func, ast.Name)
                or getattr(func.value, "id", None) == "dataclasses"):
            return typed(expr.args[0], chain)
        made = class_named(func, chain)
        if made is None and isinstance(func, ast.Attribute):
            owner = class_named(func.value, chain)
            if owner and func.attr in classes.classmethods(owner):
                made = owner
        if made is None and isinstance(func, ast.Name):
            made = classes.function_returns.get(func.id)
        return made

    def receiver(expr: ast.AST, chain: list) -> str | None:
        if not isinstance(expr, (ast.Name, ast.BinOp)):
            return None
        cls = typed(expr, chain)
        return None if cls in classes.protocols else cls

    def walk(scope: ast.AST, outer: list, method_of: str | None) -> None:
        nodes = _own_nodes(scope)
        chain = outer + [_bindings(scope, nodes, classes, method_of)]
        # A class body's names are not visible in its methods.
        inner = outer if isinstance(scope, ast.ClassDef) else chain
        for node in nodes:
            if isinstance(node, ast.Attribute):
                reads.append((node.attr, receiver(node.value, chain),
                              node.lineno))
            elif isinstance(node, ast.Call):
                reads.extend((name, None, node.lineno)
                             for name in _resolved(node))
            if isinstance(node, SCOPES):
                method = (isinstance(scope, ast.ClassDef)
                          and not isinstance(node, (ast.Lambda, ast.ClassDef))
                          and "staticmethod" not in _decorators(node))
                walk(node, inner, scope.name if method else None)

    walk(tree, [], None)
    return reads


def _unused_public_names(modules: dict[str, ast.AST],
                         callers) -> tuple[set[str], set[str]]:
    """Dotted names of the public module-level names, and of the public
    methods and properties, of ``modules`` that nothing in the
    ``callers`` trees (``modules``' own trees among them) refers to
    outside their own definition."""
    classes = _Classes(modules)
    names = [(tree, _references(tree)) for tree in callers]
    reads: dict[str, list] = {}
    for tree in callers:
        for attr, owner, line in _attribute_reads(tree, classes):
            reads.setdefault(attr, []).append((tree, line, owner))

    unused_names, unused_methods = set(), set()
    for module, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            # Reads inside the definition itself (recursion, its own
            # type in an annotation) are not uses.
            inside = sum(isinstance(n, ast.Attribute) and n.attr == node.name
                         or isinstance(n, ast.Name) and n.id == node.name
                         for n in ast.walk(node))
            if not any(counts[node.name] > (inside if other is tree else 0)
                       for other, counts in names):
                unused_names.add(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            family = classes.family(node.name)
            for method in node.body:
                if (not isinstance(method, ast.FunctionDef)
                        or method.name.startswith("_")
                        or _decorators(method) & {"setter", "deleter"}):
                    continue
                span = range(min([method.lineno]
                                 + [d.lineno for d in method.decorator_list]),
                             method.end_lineno + 1)
                if not any((owner is None or owner in family)
                           and not (where is tree and line in span)
                           for where, line, owner
                           in reads.get(method.name, ())):
                    unused_methods.add(f"{module}.{node.name}.{method.name}")
    return unused_names, unused_methods


def _inherited_init(node: ast.ClassDef,
                    classes: dict[str, ast.ClassDef]) -> ast.FunctionDef | None:
    """The ``__init__`` a class without one of its own runs: the nearest
    one among its scanned bases, depth first in base order (``None``
    when a dataclass or a class outside the scan makes it)."""
    for base in node.bases:
        found = classes.get(_name_of(base))
        if found is None or found is node or _is_dataclass(found):
            continue
        init = next((m for m in found.body if isinstance(m, ast.FunctionDef)
                     and m.name == "__init__"), None)
        if init is None:
            init = _inherited_init(found, classes)
        if init is not None:
            return init
    return None


def _public_callables(modules: dict[str, ast.AST]):
    """``(dotted name, called as, definition, bound)`` of every public
    function, ``__init__`` (named by its class; a class without one is
    named on the ``__init__`` it inherits from a scanned base, private or
    not) and public method of ``modules``; ``bound`` when the first
    parameter is ``self`` or ``cls``."""
    classes = {node.name: node for tree in modules.values()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    for module, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node.name, node, False
                continue
            own = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
            if "__init__" not in own and not _is_dataclass(node):
                init = _inherited_init(node, classes)
                if init is not None:
                    yield f"{module}.{node.name}", node.name, init, True
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) \
                        or _is_property(method):
                    continue
                bound = "staticmethod" not in _decorators(method)
                if method.name == "__init__":
                    yield f"{module}.{node.name}", node.name, method, True
                elif not method.name.startswith("_"):
                    yield (f"{module}.{node.name}.{method.name}",
                           method.name, method, bound)


def _parameters(modules: dict[str, ast.AST]):
    """``(dotted name, called as, parameter, place, default)`` of every
    parameter of the public callables of ``modules`` (``*args`` and
    ``**kwargs`` aside): ``place`` is its position, ``None`` when it is
    keyword-only, and ``default`` its default, ``None`` when it has
    none."""
    for dotted, called_as, node, bound in _public_callables(modules):
        args = node.args
        positional = (args.posonlyargs + args.args)[bound:]
        defaults = ([None] * (len(positional) - len(args.defaults))
                    + args.defaults)
        for place, (arg, default) in enumerate(zip(positional, defaults)):
            yield f"{dotted}({arg.arg})", called_as, arg.arg, place, default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            yield f"{dotted}({arg.arg})", called_as, arg.arg, None, default


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


def _value(node: ast.AST) -> str | None:
    """A key for a literal or an UPPER_CASE constant, equal for equal
    values; ``None`` for any other expression."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = _name_of(node)
        return f"constant {name}" if len(name) > 1 and name.isupper() \
            else None
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return None
    return ast.dump(node)


@functools.cache
def _calls(trees: tuple[ast.AST, ...]) -> dict[str, list[tuple]]:
    """Every call under ``trees`` (cached: the scans only read it), by
    the callee's bare name, as
    ``(positional, keywords, starred, everything)``: the :func:`_value`
    of each positional argument before any ``*args`` and of each keyword
    by name, whether a ``*args`` passes the later positions, and whether
    a ``**mapping`` passes every keyword. A ``**kwargs`` forward of the
    enclosing function's own ``**`` parameter passes what each call of
    that function passes (less its named parameters), so the forwarding
    call counts once per call of the forwarder; any other ``**mapping``
    passes everything."""
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
            star = next((i for i, arg in enumerate(args)
                         if isinstance(arg, ast.Starred)), len(args))
            forwards = [_forwarded(enclosing.get(id(node)), owner, k)
                        for k in node.keywords if k.arg is None]
            raw.setdefault(name, []).append((
                [_value(arg) for arg in args[:star]],
                {k.arg: _value(k.value) for k in node.keywords if k.arg},
                star < len(args), forwards))

    def expand(call: tuple, seen: frozenset[str]) -> list[tuple]:
        """One call per path through its forwards, each with the
        keywords the forwarder's caller passes on that path."""
        positional, keywords, starred, forwards = call
        done = [(keywords, False)]
        for forward in forwards:
            if forward is None:
                done = [(named, True) for named, _ in done]
                continue
            forwarder, own = forward
            if forwarder in seen:
                continue
            outer = [(named, every) for more in raw.get(forwarder, ())
                     for _, named, _, every
                     in expand(more, seen | {forwarder})]
            done = [({**named, **{k: v for k, v in more.items()
                                  if k not in own}}, every or more_every)
                    for named, every in done
                    for more, more_every in outer] or done
        return [(positional, named, starred, every) for named, every in done]

    return {name: [done for call in found
                   for done in expand(call, frozenset())]
            for name, found in raw.items()}


def _arguments(calls, name: str, place: int | None,
               default: ast.AST | None) -> tuple[bool, list]:
    """Whether any of ``calls`` passes the parameter ``name`` (at
    ``place``), and the value key each call gives it: what it passes, or
    the default it leaves in place (``None`` where no literal or
    constant names the value)."""
    passed, values = False, []
    for positional, keywords, starred, everything in calls:
        if place is not None and place < len(positional):
            value = positional[place]
        elif name in keywords:
            value = keywords[name]
        elif everything:
            value = None
        else:
            values.append(None if default is None
                          or starred and place is not None
                          else _value(default))
            continue
        passed = True
        values.append(value)
    return passed, values


def _unpassed_parameters(modules: dict[str, ast.AST],
                         callers) -> set[str]:
    """The defaulted public parameters of ``modules`` that no call in
    the ``callers`` trees passes (``module.Callable(param)``)."""
    calls = _calls(tuple(callers))
    return {dotted for dotted, called_as, name, place, default
            in _parameters(modules)
            if default is not None
            and not _arguments(calls.get(called_as, ()), name, place,
                               default)[0]}


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


def _fields(modules: dict[str, ast.AST]):
    """``(dotted name, class, field, place, default, option)`` of every
    ``__init__`` field of the public dataclasses of ``modules``: ``place``
    is its index among those fields, ``default`` its default expression
    (the ``field(default_factory=...)`` call for a factory, ``None`` when
    it has none), and ``option`` whether it has a default that is not a
    factory. ``init=False`` fields take no place and are skipped."""
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
                default = stmt.value
                spec = ({k.arg: k.value for k in default.keywords}
                        if isinstance(default, ast.Call)
                        and getattr(default.func, "id", None) == "field"
                        else None)
                if spec is not None and getattr(spec.get("init"), "value",
                                                True) is False:
                    continue
                option = default is not None
                if spec is not None:
                    option = "default" in spec
                    default = spec.get("default", default if "default_factory"
                                       in spec else None)
                yield (f"{module}.{node.name}.{stmt.target.id}",
                       node.name, stmt.target.id, place, default, option)
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


def _field_calls(calls: dict, owner: str, name: str) -> list[tuple]:
    """The calls that may set the field ``name`` of the dataclass
    ``owner``: every call of the class, and each ``replace(obj, ...)``
    that passes it (by keyword only, or through a ``**mapping``)."""
    return calls.get(owner, []) + [
        ([], keywords, False, everything)
        for _, keywords, _, everything in calls.get("replace", ())
        if name in keywords or everything]


def _unset_fields(modules: dict[str, ast.AST], callers) -> set[str]:
    """The options among the dataclass fields of ``modules`` that no
    call in the ``callers`` trees sets (``module.Class.field``): by
    keyword, by position or through a forward, in a call of the class
    or a ``replace(...)``. A field that code other than its own class's
    ``__post_init__`` assigns is state, not an option."""
    calls = _calls(tuple(callers))
    stores = _assigned_fields(modules)
    return {dotted for dotted, owner, name, place, default, option
            in _fields(modules)
            if option and not stores.get(name, set()) - {owner}
            and not _arguments(_field_calls(calls, owner, name), name,
                               place, default)[0]}


def _one_value_arguments(modules: dict[str, ast.AST], callers) -> set[str]:
    """The public parameters (``module.Callable(param)``) and dataclass
    fields (``module.Class.field``, state aside) of ``modules`` to which
    every call in the ``callers`` trees gives one value, a literal or an
    UPPER_CASE constant, with some call passing it: a constant, not an
    option. A call that leaves a default in place gives the default."""
    calls = _calls(tuple(callers))
    stores = _assigned_fields(modules)

    def one_value(found, name, place, default) -> bool:
        passed, values = _arguments(found, name, place, default)
        return passed and None not in values and len(set(values)) == 1

    found = {dotted for dotted, called_as, name, place, default
             in _parameters(modules)
             if one_value(calls.get(called_as, ()), name, place, default)}
    return found | {
        dotted for dotted, owner, name, place, default, _ in _fields(modules)
        if not stores.get(name, set()) - {owner}
        and one_value(_field_calls(calls, owner, name), name, place, default)}


def _drift(found: set[str],
           allowed: dict[str, str]) -> tuple[list[str], list[str]]:
    """``(found but not allowed, allowed but no longer found)``: both
    must be empty."""
    return sorted(found - allowed.keys()), sorted(allowed.keys() - found)


@functools.cache
def _repo_unused() -> tuple[set[str], set[str]]:
    return _unused_public_names(_package_modules(),
                                tuple(_caller_trees().values()))


def test_every_public_name_has_a_caller_or_a_reason():
    unused, _ = _repo_unused()
    missing, stale = _drift(unused, ALLOWED)
    assert missing == [], (
        "public names only tests reach: delete them, give them a caller, "
        "or add them to ALLOWED with a reason"
    )
    assert stale == [], (
        "ALLOWED entries that now have a caller or no longer exist"
    )


def test_every_public_method_has_a_caller_or_a_reason():
    _, unused = _repo_unused()
    missing, stale = _drift(unused, ALLOWED_METHODS)
    assert missing == [], (
        "public methods and properties only tests reach: delete them, "
        "give them a caller, or add them to ALLOWED_METHODS with a reason"
    )
    assert stale == [], (
        "ALLOWED_METHODS entries that now have a caller or no longer exist"
    )


def test_every_defaulted_parameter_is_passed_or_has_a_reason():
    unpassed = _unpassed_parameters(_package_modules(),
                                    tuple(_caller_trees().values()))
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
    unset = _unset_fields(_package_modules(),
                          tuple(_caller_trees().values()))
    missing, stale = _drift(unset, ALLOWED_FIELDS)
    assert missing == [], (
        "dataclass fields only tests set: make them constants, derive "
        "them, or add them to ALLOWED_FIELDS with a reason"
    )
    assert stale == [], (
        "ALLOWED_FIELDS entries that are now set, state or gone"
    )


def test_every_argument_varies_or_has_a_reason():
    constant = _one_value_arguments(_package_modules(),
                                    tuple(_caller_trees().values()))
    missing, stale = _drift(constant, ALLOWED_ONE_VALUE)
    assert missing == [], (
        "parameters and fields every caller gives one value: make them "
        "constants beside their function, give them a caller that varies "
        "them, or add them to ALLOWED_ONE_VALUE with a reason"
    )
    assert stale == [], (
        "ALLOWED_ONE_VALUE entries that now vary or no longer exist"
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
    "inherited-init-is-its-subclass-s": (
        """
        class _Base:
            def __init__(self, x=1): pass

        class C(_Base): pass
        """, "C()", {"m.C(x)"}),
    "inherited-init-passed-through-its-subclass": (
        """
        class _Base:
            def __init__(self, x=1): pass

        class _Middle(_Base): pass

        class C(_Middle): pass
        """, "C(x=2)", set()),
    "dataclass-init-is-its-fields": (
        """
        class _Base:
            def __init__(self, x=1): pass

        @dataclass
        class C(_Base):
            y: int = 0
        """, "C(y=1)", set()),
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


#: ``(definitions of module m, caller module, unread methods and
#: properties)``: the property rule, one clause per case.
PROPERTY_CASES = {
    "read": ("""
        class C:
            @property
            def size(self): return 1
        """, "obj.size", set()),
    "unread": ("""
        class C:
            @property
            def size(self): return 1
        """, "", {"m.C.size"}),
    "cached-property": ("""
        class C:
            @cached_property
            def table(self): return []
        """, "", {"m.C.table"}),
    "read-by-its-own-class": ("""
        class C:
            @property
            def size(self): return 1

            def grow(self): return self.size + 1
        """, "C().grow()", set()),
    "read-only-inside-itself": ("""
        class C:
            @property
            def size(self): return self.inner.size
        """, "", {"m.C.size"}),
    "setter-is-the-property": ("""
        class C:
            @property
            def size(self): return 1

            @size.setter
            def size(self, value): pass
        """, "obj.size = 2", set()),
}


@pytest.mark.parametrize("definitions, caller, expected",
                         PROPERTY_CASES.values(), ids=PROPERTY_CASES)
def test_property_scan_rule(definitions, caller, expected):
    module = _parse(definitions)
    assert _unused_public_names({"m": module},
                                [module, _parse(caller)])[1] == expected


#: ``(definitions of module m, caller module, one-value arguments)``:
#: the one-value rule, one clause per case.
ONE_VALUE_CASES = {
    "same-literal": ("def f(a): pass", "f(1)\nf(1)", {"m.f(a)"}),
    "two-literals": ("def f(a): pass", "f(1)\nf(2)", set()),
    "one-call": ("def f(a, b): pass", "f(1, x)", {"m.f(a)"}),
    "same-constant": ("def f(a): pass", "f(LIMIT)\nf(cfg.LIMIT)",
                      {"m.f(a)"}),
    "computed-value": ("def f(a): pass", "f(1)\nf(x)", set()),
    "keyword-and-position-agree": (
        "def f(a): pass", "f(1)\nf(a=1)", {"m.f(a)"}),
    "default-left-in-place-is-that-value": (
        "def f(a=1): pass", "f()\nf(1)", {"m.f(a)"}),
    "default-and-another-value": ("def f(a=1): pass", "f()\nf(2)", set()),
    "never-passed-is-the-parameter-rule": ("def f(a=1): pass", "f()", set()),
    "star-args-pass-an-unknown": (
        "def f(a, b): pass", "f(0, 1)\nf(0, *rest)", {"m.f(a)"}),
    "mapping-passes-an-unknown": (
        "def f(a): pass", "f(1)\nf(**options)", set()),
    "kwargs-forward-carries-each-callers-value": (
        """
        def f(a, b=1): pass

        def g(a, **kwargs): return f(a, **kwargs)
        """, "g(0, b=2)\ng(0, b=2)", {"m.f(b)", "m.g(a)"}),
    "kwargs-forward-of-two-values": (
        """
        def f(a, b=1): pass

        def g(a, **kwargs): return f(a, **kwargs)
        """, "g(0, b=2)\ng(1, b=3)", set()),
    "method-skips-self": (
        """
        class C:
            def go(self, x): pass
        """, "obj.go(1)", {"m.C.go(x)"}),
    "inherited-init": (
        """
        class _Base:
            def __init__(self, x): pass

        class C(_Base): pass

        class D(_Base): pass
        """, "C(1)\nC(x=1)\nD(1)\nD(2)", {"m.C(x)"}),
    "field": ("""
        @dataclass
        class C:
            a: int
        """, "C(1)\nC(a=1)", {"m.C.a"}),
    "field-replace-gives-a-value": ("""
        @dataclass
        class C:
            b: int = 1
        """, "C(b=2)\nreplace(c, b=3)", set()),
    "field-replace-of-another-field-gives-none": ("""
        @dataclass
        class C:
            a: int = 0
            b: int = 1
        """, "C(b=2)\nreplace(c, a=x)", {"m.C.b"}),
    "state-field-is-skipped": ("""
        @dataclass
        class C:
            b: int = 0

        class D:
            def charge(self, c): c.b += 1
        """, "C(b=1)", set()),
}


@pytest.mark.parametrize("definitions, caller, expected",
                         ONE_VALUE_CASES.values(), ids=ONE_VALUE_CASES)
def test_one_value_scan_rule(definitions, caller, expected):
    module = _parse(definitions)
    assert _one_value_arguments({"m": module}, [module, _parse(caller)]) \
        == expected


#: Two classes with a method of one name, which the receiver cases call.
TWO_RUNS = """
    class A:
        def run(self): pass

    class B:
        def run(self): pass
    """

#: ``A + x`` is a ``B`` and ``B * x`` a ``B``; ``B + x`` is unannotated.
ADDS = """
    class A:
        def run(self): pass

        def __add__(self, other) -> "B": pass

    class B:
        def run(self): pass

        def __add__(self, other): pass

        def __mul__(self, other) -> "B | None": pass
    """

#: ``(definitions of module m, caller module, unread methods)``: the
#: receiver rule, one clause per case.
RECEIVER_CASES = {
    "unresolved-counts-for-every-class": (TWO_RUNS, "obj.run()", set()),
    "constructed-name": (TWO_RUNS, "a = A()\na.run()", {"m.B.run"}),
    "constructed-local": (
        TWO_RUNS, "def go():\n    b = B()\n    b.run()", {"m.A.run"}),
    "classmethod-constructor": (TWO_RUNS + """
    class C(A):
        @classmethod
        def make(cls): return cls()
    """, "c = C.make()\nc.run()", {"m.B.run"}),
    "class-itself": (TWO_RUNS, "A.run(x)", {"m.B.run"}),
    "annotated-parameter": (
        TWO_RUNS, "def go(b: B):\n    b.run()", {"m.A.run"}),
    "optional-string-annotation": (
        TWO_RUNS, "def go(b: 'B | None'):\n    b.run()", {"m.A.run"}),
    "unannotated-parameter-shadows-a-module-name": (
        TWO_RUNS, "a = A()\ndef go(a):\n    a.run()", set()),
    "rebound-name": (TWO_RUNS, "x = A()\nx = B()\nx.run()", set()),
    "computed-binding": (TWO_RUNS, "x = A()\nx = pick()\nx.run()", set()),
    "foreign-class": (
        TWO_RUNS, "token = ContextVar('t')\ntoken.run()",
        {"m.A.run", "m.B.run"}),
    "import-alias": (
        TWO_RUNS, "from m import B as Other\nx = Other()\nx.run()",
        {"m.A.run"}),
    "self-is-its-class": ("""
        class A:
            def run(self): pass

            def start(self): self.run()

        class B:
            def run(self): pass
        """, "A().start()", {"m.B.run"}),
    "self-reaches-bases-and-subclasses": ("""
        class Base:
            def go(self): self.step()

            def run(self): pass

        class Sub(Base):
            def step(self): pass

        class Other:
            def step(self): pass

        def use(sub: Sub): sub.run()
        """, "obj.go()", {"m.Other.step"}),
    "package-function-return": (
        TWO_RUNS + "def make() -> B: return B()", "b = make()\nb.run()",
        {"m.A.run"}),
    "optional-string-return": (
        TWO_RUNS + "def make() -> 'B | None': return B()",
        "def go():\n    b = make()\n    b.run()", {"m.A.run"}),
    "unannotated-function-is-unresolved": (
        TWO_RUNS + "def make(): return B()", "b = make()\nb.run()", set()),
    "dataclasses-replace": (
        TWO_RUNS, "b = B()\nc = replace(b, x=1)\nc.run()", {"m.A.run"}),
    "dataclasses-module-replace": (
        TWO_RUNS, "b = B()\nc = dataclasses.replace(b)\nc.run()",
        {"m.A.run"}),
    "str-replace-is-no-copy": (
        TWO_RUNS, "b = B()\nc = text.replace(b, '')\nc.run()", set()),
    "binary-op-dunder": (ADDS, "a = A()\nc = a + 1\nc.run()", {"m.A.run"}),
    "binary-op-receiver": (ADDS, "a = A()\n(a + 1).run()", {"m.A.run"}),
    "binary-op-on-itself": (
        ADDS, "b = B()\nb = b * 2\nb.run()", {"m.A.run"}),
    "unannotated-dunder-is-unresolved": (
        ADDS, "b = B()\nc = b + 1\nc.run()", set()),
    "protocol-is-unresolved": ("""
        class P(Protocol):
            def run(self): pass

        class A:
            def run(self): pass

        def go(p: P): p.run()
        """, "", set()),
}


@pytest.mark.parametrize("definitions, caller, expected",
                         RECEIVER_CASES.values(), ids=RECEIVER_CASES)
def test_receiver_scan_rule(definitions, caller, expected):
    module = _parse(definitions)
    assert _unused_public_names({"m": module},
                                [module, _parse(caller)])[1] == expected


def _read_names(source: str) -> list[str]:
    return [attr for attr, _, _ in _attribute_reads(
        _parse(source), _Classes({}))]


def test_a_local_variable_is_no_method_reference():
    source = """
        describe = 1
        obj.run(describe)
    """
    assert _references(_parse(source))["describe"] == 2
    assert _read_names(source) == ["run"]


def test_resolved_strings_are_attribute_reads():
    source = "resolve('repro.x', 'probe', 'inner')"
    assert sorted(_read_names(source)) == ["inner", "probe"]


def test_an_import_alias_reads_its_name():
    assert _references(_parse("""
        from repro.x import helper as h
        h()
    """))["helper"] == 1


def test_every_allowed_name_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())
    assert all(reason.strip()
               for reason in ALLOWED_METHODS.values())
    assert all(reason.strip() for reason in ALLOWED_PARAMETERS.values())
    assert all(reason.strip() for reason in ALLOWED_FIELDS.values())
    assert all(reason.strip() for reason in ALLOWED_ONE_VALUE.values())


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
