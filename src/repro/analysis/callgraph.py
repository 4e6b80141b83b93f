"""Module-level call graph over a Python package, built from the AST.

:func:`build_program` parses every module under a package root and
produces a :class:`ProgramModel`: functions and classes by qualified
name, per-module import bindings, module-level globals, and — the part
everything downstream consumes — one :class:`CallSite` per call
expression, resolved as far as a purely syntactic analysis can take it:

* plain names through the module's ``import`` / ``from-import``
  bindings, module-level ``def``/``class`` statements, and builtins;
* dotted names through module aliases (``import numpy as np`` makes
  ``np.random.rand`` resolve to ``numpy.random.rand``);
* re-exports (``from repro.verify import run_checks`` where
  ``repro.verify`` itself imported the name) by chasing the binding
  chain through ``__init__`` modules;
* ``self.method()`` to the enclosing class, and ``x.method()`` to
  ``Cls.method`` when ``x`` was assigned from a resolved ``Cls(...)``
  call in the same scope (one-level local type inference);
* bare function references passed as call arguments (``pool.submit(fn,
  ...)``) become edges too — a worker entrypoint handed to an executor
  is reachable even though it is never "called" syntactically.

Method calls on values whose type the analysis cannot see
(``ctx.store.load(...)``) stay unresolved: the effect inference in
:mod:`repro.analysis.effects` is deliberately *under*-approximate and
precise rather than exhaustively conservative, so every finding it
raises is worth reading.  The documented limitation lives in
``docs/VERIFY.md``.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass
class CallSite:
    """One call expression inside one function."""

    caller: str
    lineno: int
    #: Qualified name of a function/method defined inside the program,
    #: when resolution succeeded.
    target: Optional[str] = None
    #: Dotted name of an external callee ("time.perf_counter",
    #: "builtins.id") when the call leaves the program.
    external: Optional[str] = None
    #: Caller parameter names passed positionally (None for other exprs).
    pos_args: tuple[Optional[str], ...] = ()
    #: Caller parameter names passed by keyword.
    kw_args: dict[str, Optional[str]] = field(default_factory=dict)
    #: For ``p.method(...)`` where ``p`` is a caller parameter: (p, method).
    receiver_param: Optional[str] = None
    receiver_method: Optional[str] = None
    #: True when the edge is a bare function reference passed as an
    #: argument rather than a direct call.
    is_reference: bool = False


@dataclass
class FunctionInfo:
    """One function or method defined in the program."""

    qualname: str
    module: str
    name: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    lineno: int
    params: tuple[str, ...]
    class_qualname: Optional[str] = None
    is_property: bool = False
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class defined in the program."""

    qualname: str
    module: str
    name: str
    lineno: int
    is_dataclass: bool = False
    #: Dataclass field names in declaration order (AnnAssign at class
    #: body level, minus ClassVar annotations).
    fields: tuple[str, ...] = ()
    #: field name -> annotation source text (``ast.unparse``d).
    field_annotations: dict[str, str] = field(default_factory=dict)
    #: Base-class dotted names exactly as written (``enum.Enum``,
    #: ``Enum``); resolve through the module's imports to classify.
    bases: tuple[str, ...] = ()
    #: method name -> method qualname
    methods: dict[str, str] = field(default_factory=dict)
    properties: frozenset[str] = frozenset()


@dataclass
class ModuleInfo:
    """One parsed module."""

    name: str
    path: Path
    source_lines: tuple[str, ...]
    #: local binding -> dotted target ("np" -> "numpy",
    #: "run_checks" -> "repro.verify.run_checks").
    imports: dict[str, str] = field(default_factory=dict)
    #: Module-level ``Alias = Name`` assignments whose value is a plain
    #: (dotted) name — type aliases like ``DesignRef = str``.
    aliases: dict[str, str] = field(default_factory=dict)
    #: Names assigned at module level (candidate mutable globals).
    global_names: frozenset[str] = frozenset()
    functions: list[str] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)


@dataclass
class ProgramModel:
    """Everything the effect inference needs about one package."""

    package: str
    root: Path
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Lazily filled caches (reachability, effects, param reads).
    caches: dict[str, object] = field(default_factory=dict)

    def callees(self, qualname: str) -> Iterator[CallSite]:
        """All resolved in-program call sites of one function."""
        fn = self.functions.get(qualname)
        if fn is None:
            return
        for site in fn.calls:
            if site.target is not None:
                yield site

    def resolve_export(self, dotted: str) -> Optional[str]:
        """Chase re-export bindings until ``dotted`` names a definition.

        ``repro.verify.run_checks`` resolves to
        ``repro.verify.registry.run_checks`` when the ``__init__``
        module merely re-exported the name.
        """
        seen: set[str] = set()
        while dotted not in self.functions and dotted not in self.classes:
            if dotted in seen:
                return None
            seen.add(dotted)
            module, attr = _split_module_attr(dotted, self.modules)
            if module is None or attr is None:
                return None
            binding = self.modules[module].imports.get(attr)
            if binding is None:
                return None
            dotted = binding
        return dotted


def _split_module_attr(dotted: str, modules: dict[str, ModuleInfo]
                       ) -> tuple[Optional[str], Optional[str]]:
    """Split ``a.b.c.d`` into (longest known module prefix, remainder)."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in modules:
            return prefix, ".".join(parts[cut:])
    return None, None


def _dotted_name(node: ast.expr) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_name(root: Path, package: str, path: Path) -> str:
    rel = path.relative_to(root).with_suffix("")
    parts = [package, *rel.parts]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _decorator_names(node: Union[ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef]) -> list[str]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = _dotted_name(target)
        if dotted is not None:
            names.append(dotted)
    return names


def _param_names(node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
                 ) -> tuple[str, ...]:
    args = node.args
    ordered = [*args.posonlyargs, *args.args]
    names = [a.arg for a in ordered]
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


def _class_fields(node: ast.ClassDef) -> tuple[tuple[str, ...],
                                               dict[str, str]]:
    fields = []
    annotations: dict[str, str] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                          ast.Name):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            fields.append(stmt.target.id)
            annotations[stmt.target.id] = annotation
    return tuple(fields), annotations


def _class_bases(node: ast.ClassDef) -> tuple[str, ...]:
    bases = []
    for base in node.bases:
        dotted = _dotted_name(base)
        if dotted is not None:
            bases.append(dotted)
    return tuple(bases)


def _import_bindings(stmt: Union[ast.Import, ast.ImportFrom],
                     module: ModuleInfo) -> dict[str, str]:
    """local name -> dotted target for one import statement."""
    out: dict[str, str] = {}
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            out[local] = target
        return out
    if stmt.level:
        base_parts = module.name.split(".")
        # Plain modules drop their own name; packages (__init__)
        # already are the containing package.
        if not module.path.name == "__init__.py":
            base_parts = base_parts[:-1]
        if stmt.level > 1:
            base_parts = base_parts[:-(stmt.level - 1)]
        base = ".".join(base_parts)
        source = f"{base}.{stmt.module}" if stmt.module else base
    else:
        source = stmt.module or ""
    for alias in stmt.names:
        if alias.name != "*":
            out[alias.asname or alias.name] = f"{source}.{alias.name}"
    return out


class _ModuleCollector(ast.NodeVisitor):
    """First pass: definitions, imports and module-level globals."""

    def __init__(self, program: ProgramModel, module: ModuleInfo) -> None:
        self.program = program
        self.module = module
        self._class_stack: list[ClassInfo] = []
        self._globals: set[str] = set()

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self.module.imports.update(_import_bindings(node, self.module))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.module.imports.update(_import_bindings(node, self.module))

    # -- definitions ---------------------------------------------------------

    def _qualify(self, name: str) -> str:
        if self._class_stack:
            return f"{self._class_stack[-1].qualname}.{name}"
        return f"{self.module.name}.{name}"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualify(node.name)
        decorators = _decorator_names(node)
        fields, annotations = _class_fields(node)
        info = ClassInfo(
            qualname=qualname, module=self.module.name, name=node.name,
            lineno=node.lineno,
            is_dataclass=any(d.split(".")[-1] == "dataclass"
                             for d in decorators),
            fields=fields, field_annotations=annotations,
            bases=_class_bases(node))
        self.program.classes[qualname] = info
        self.module.classes.append(qualname)
        self._class_stack.append(info)
        properties = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(d.split(".")[-1] in ("property", "cached_property")
                       for d in _decorator_names(stmt)):
                    properties.add(stmt.name)
        info.properties = frozenset(properties)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: Union[ast.FunctionDef,
                                          ast.AsyncFunctionDef]) -> None:
        qualname = self._qualify(node.name)
        cls = self._class_stack[-1] if self._class_stack else None
        info = FunctionInfo(
            qualname=qualname, module=self.module.name, name=node.name,
            node=node, lineno=node.lineno, params=_param_names(node),
            class_qualname=cls.qualname if cls else None,
            is_property=cls is not None and node.name in cls.properties)
        self.program.functions[qualname] = info
        self.module.functions.append(qualname)
        if cls is not None:
            cls.methods[node.name] = qualname
        # Do not recurse: nested defs are analyzed as part of their
        # enclosing function's body (closure effects stay attributed to
        # the function that creates and runs them).

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- module-level globals ------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._class_stack:
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        self._globals.add(name_node.id)
            # Type aliases: module-level ``Alias = <dotted name>``.
            if len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                dotted = _dotted_name(node.value)
                if dotted is not None:
                    self.module.aliases[node.targets[0].id] = dotted

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._class_stack and isinstance(node.target, ast.Name):
            self._globals.add(node.target.id)


def _local_store_names(node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
                       ) -> set[str]:
    """Names bound inside the function body (stores, loops, withs)."""
    names: set[str] = set(_param_names(node))
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            names.difference_update(sub.names)
    return names


class _CallCollector(ast.NodeVisitor):
    """Second pass: call sites of one function, resolved."""

    def __init__(self, program: ProgramModel, module: ModuleInfo,
                 fn: FunctionInfo) -> None:
        self.program = program
        self.module = module
        self.fn = fn
        self.locals = _local_store_names(fn.node)
        #: local name -> class qualname, for x = Cls(...) inference.
        self.local_types: dict[str, str] = {}
        #: Function-local import bindings (``from x import y`` inside
        #: the body).  Worker entries defer heavy imports to the
        #: function body; without these the worker closure is blind.
        self.fn_imports: dict[str, str] = {}
        for sub in ast.walk(fn.node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                self.fn_imports.update(_import_bindings(sub, module))

    def resolve_name(self, dotted: str) -> Optional[str]:
        """Expand the first segment through imports/module scope."""
        first, _, rest = dotted.partition(".")
        if first in self.locals:
            return None  # shadowed by a local/param we cannot type
        binding = self.fn_imports.get(first) or self.module.imports.get(first)
        if binding is not None:
            return f"{binding}.{rest}" if rest else binding
        module_qual = f"{self.module.name}.{first}"
        if (module_qual in self.program.functions
                or module_qual in self.program.classes
                or first in self.module.global_names):
            return f"{module_qual}.{rest}" if rest else module_qual
        if first in _BUILTIN_NAMES and first not in self.locals:
            return f"builtins.{dotted}"
        return None

    def _target_for(self, expanded: str) -> Optional[str]:
        """In-program function for an expanded dotted name, chasing
        re-exports and class constructors."""
        resolved = self.program.resolve_export(expanded)
        if resolved is None:
            return None
        if resolved in self.program.functions:
            return resolved
        cls = self.program.classes.get(resolved)
        if cls is not None:
            return cls.methods.get("__init__")
        return None

    def _classify(self, func: ast.expr) -> CallSite:
        site = CallSite(caller=self.fn.qualname, lineno=func.lineno)
        # self.method() / cls.method()
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and self.fn.class_qualname is not None):
            cls = self.program.classes[self.fn.class_qualname]
            site.target = cls.methods.get(func.attr)
            return site
        # x.method() where x = Cls(...) earlier in this function.
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self.local_types):
            cls = self.program.classes.get(self.local_types[func.value.id])
            if cls is not None and func.attr in cls.methods:
                site.target = cls.methods[func.attr]
                return site
        # p.method() where p is a parameter: recorded for the
        # cache-key analysis (the params-class methods get resolved
        # there, where the declared type is known).
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self.fn.params):
            site.receiver_param = func.value.id
            site.receiver_method = func.attr
        dotted = _dotted_name(func)
        if dotted is None:
            return site
        expanded = self.resolve_name(dotted)
        if expanded is None:
            return site
        target = self._target_for(expanded)
        if target is not None:
            site.target = target
        else:
            site.external = expanded
        return site

    def visit_Call(self, node: ast.Call) -> None:
        site = self._classify(node.func)
        site.lineno = node.lineno
        site.pos_args = tuple(
            arg.id if isinstance(arg, ast.Name)
            and arg.id in self.fn.params else None
            for arg in node.args if not isinstance(arg, ast.Starred))
        site.kw_args = {
            kw.arg: (kw.value.id if isinstance(kw.value, ast.Name)
                     and kw.value.id in self.fn.params else None)
            for kw in node.keywords if kw.arg is not None}
        self.fn.calls.append(site)
        # Bare references to program functions passed as arguments are
        # edges too (executor submit / map, callbacks, initializers).
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            dotted = _dotted_name(arg)
            if dotted is None:
                continue
            expanded = self.resolve_name(dotted)
            if expanded is None:
                continue
            target = self._target_for(expanded)
            if target is not None:
                self.fn.calls.append(CallSite(
                    caller=self.fn.qualname, lineno=node.lineno,
                    target=target, is_reference=True))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # One-level local type inference: x = Cls(...)
        if (isinstance(node.value, ast.Call)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            dotted = _dotted_name(node.value.func)
            if dotted is not None:
                expanded = self.resolve_name(dotted)
                if expanded is not None:
                    resolved = self.program.resolve_export(expanded)
                    if resolved in self.program.classes:
                        self.local_types[node.targets[0].id] = resolved
        self.generic_visit(node)


def build_program(root: Union[str, Path],
                  package: Optional[str] = None) -> ProgramModel:
    """Parse every module under ``root`` into a :class:`ProgramModel`.

    ``root`` is a package directory (one containing ``__init__.py``);
    ``package`` defaults to the directory's own name.
    """
    root = Path(root).resolve()
    if not root.is_dir():
        raise ValueError(f"not a package directory: {root}")
    package = package or root.name
    program = ProgramModel(package=package, root=root)

    paths = sorted(root.rglob("*.py"))
    for path in paths:
        name = _module_name(root, package, path)
        source = path.read_text(encoding="utf-8")
        module = ModuleInfo(name=name, path=path,
                            source_lines=tuple(source.splitlines()))
        program.modules[name] = module
        tree = ast.parse(source, filename=str(path))
        collector = _ModuleCollector(program, module)
        collector.visit(tree)
        module.global_names = frozenset(collector._globals)

    for module in program.modules.values():
        for qualname in module.functions:
            fn = program.functions[qualname]
            _CallCollector(program, module, fn).visit(fn.node)
    return program
