"""Whole-program structure: modules, functions, imports, and call sites.

The per-file rules in :mod:`repro.analysis.rules` see one AST at a time;
the FLOW rules (:mod:`repro.analysis.flow`) reason about values crossing
function and module boundaries, which needs the project assembled first:

* :class:`ModuleInfo` — one parsed file: its logical path, dotted module
  name, import aliases, and every function/method defined in it;
* :class:`FunctionInfo` — one function or method with its call sites
  pre-extracted (:class:`CallSite`: the terminal callee name plus the
  dotted receiver chain, the two facts call resolution works from);
* :class:`ProjectGraph` — the assembled program: name-indexed function
  lookup, caller queries, the module-level import graph, and the
  package layering table documented in docs/static-analysis.md.

Call resolution is deliberately *name-keyed*: Python has no static
types, so a call ``self._cipher.decrypt(...)`` resolves to every
function def named ``decrypt`` in the project. The flow engine layers
two disciplines on top: interprocedural summaries propagate only
through *unambiguous* names (exactly one def project-wide), and the
security-relevant polymorphic names (``decrypt``, ``encrypt``, ...)
are pinned by the explicit catalogs in :mod:`repro.analysis.taint`,
which may also require a receiver hint. That keeps the analysis sound
where it matters and quiet where it cannot know.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .engine import FileContext


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    name: str  # terminal callee name: "decrypt" for a.b.decrypt(...)
    dotted: str | None  # full dotted chain when Name-rooted, else None

    @property
    def receiver(self) -> str | None:
        """The name the method is invoked on: "_cipher" for self._cipher.f()."""
        if self.dotted is None or "." not in self.dotted:
            return None
        parts = self.dotted.split(".")
        return parts[-2]

    def arg(self, position: int, keyword: str | None = None) -> ast.expr | None:
        """Positional argument ``position``, falling back to ``keyword``."""
        if 0 <= position < len(self.node.args):
            candidate = self.node.args[position]
            if not isinstance(candidate, ast.Starred):
                return candidate
        if keyword is not None:
            for kw in self.node.keywords:
                if kw.arg == keyword:
                    return kw.value
        return None


@dataclass
class FunctionInfo:
    """A function or method definition plus its extracted call sites."""

    name: str
    qualname: str  # "core/encryption.py::AiseEncryption.decrypt"
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    calls: list[CallSite] = field(default_factory=list)

    @property
    def params(self) -> list[str]:
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def call_index_of_param(self, param: str) -> int | None:
        """The positional index callers use for ``param`` (self/cls-adjusted).

        None for keyword-only parameters (callers must use the keyword).
        """
        args = self.node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if param not in positional:
            return None
        index = positional.index(param)
        if self.is_method and positional and positional[0] in ("self", "cls"):
            index -= 1
        return index if index >= 0 else None


@dataclass
class ModuleInfo:
    """One parsed source file of the project."""

    ctx: FileContext
    tree: ast.Module
    module_name: str  # "repro.core.encryption"
    functions: list[FunctionInfo] = field(default_factory=list)
    #: local alias -> imported dotted module/symbol ("np" -> "numpy")
    aliases: dict[str, str] = field(default_factory=dict)
    #: fully-dotted repro modules this module imports
    repro_imports: set[str] = field(default_factory=set)

    @property
    def logical(self) -> str:
        return self.ctx.logical

    @property
    def package(self) -> str:
        """The first-level package the module lives in ("core", "osmodel")."""
        return self.logical.split("/")[0] if "/" in self.logical else "<root>"


def module_name_for(logical: str) -> str:
    """Dotted module name for a logical path: core/seeds.py -> repro.core.seeds."""
    stem = logical[:-3] if logical.endswith(".py") else logical
    parts = [p for p in stem.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro", *parts]) if parts else "repro"


def _extract_calls(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[CallSite]:
    """Call sites in ``fn``'s own body — nested defs own their own calls."""
    calls = []
    stack: list[ast.AST] = list(fn.body)
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(sub))
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute):
            calls.append(CallSite(sub, func.attr, _dotted(func)))
        elif isinstance(func, ast.Name):
            calls.append(CallSite(sub, func.id, func.id))
    return calls


def _collect_imports(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module.aliases[alias.asname or alias.name.split(".")[0]] = alias.name
                if alias.name == "repro" or alias.name.startswith("repro."):
                    module.repro_imports.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:  # relative: resolve against this module's package
                base = module.module_name.split(".")
                # Level 1 is the module's own package: a package
                # ``__init__`` is named after its package, a plain module
                # strips its own name. Each extra level strips one more.
                strip = node.level - (module.logical.endswith("__init__.py"))
                base = base[: len(base) - strip]
                target = ".".join(base + ([target] if target else []))
            for alias in node.names:
                dotted = f"{target}.{alias.name}" if target else alias.name
                module.aliases[alias.asname or alias.name] = dotted
                if target == "repro" or target.startswith("repro."):
                    # ``from pkg import name`` with no module names what
                    # it imports: a submodule, or a name of pkg's __init__.
                    module.repro_imports.add(dotted if node.module is None
                                             else target)


def _collect_functions(module: ModuleInfo) -> None:
    def visit(body, class_name):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{class_name}.{node.name}" if class_name else node.name
                module.functions.append(
                    FunctionInfo(
                        name=node.name,
                        qualname=f"{module.logical}::{qual}",
                        module=module,
                        node=node,
                        class_name=class_name,
                        calls=_extract_calls(node),
                    )
                )
                # Nested defs still index by name (closures in fastpath.py).
                visit(node.body, class_name)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, node.name)

    visit(module.tree.body, None)


class ProjectGraph:
    """The assembled program: modules, functions, imports, call edges."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules = {m.logical: m for m in modules}
        self.functions: list[FunctionInfo] = [
            f for m in modules for f in m.functions
        ]
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for fn in self.functions:
            self.by_name.setdefault(fn.name, []).append(fn)
        # Class-body aliases ("decrypt = apply") widen the name index: a
        # call to the alias behaves like a call to the aliased def.
        for module in modules:
            self._index_aliased_defs(module)

    @classmethod
    def build(cls, contexts: list[FileContext]) -> "ProjectGraph":
        modules = []
        for ctx in contexts:
            tree = ast.parse(ctx.source, filename=ctx.path)
            module = ModuleInfo(ctx=ctx, tree=tree, module_name=module_name_for(ctx.logical))
            _collect_imports(module)
            _collect_functions(module)
            modules.append(module)
        return cls(modules)

    def _index_aliased_defs(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            local = {f.name: f for f in module.functions if f.class_name == node.name}
            for item in node.body:
                if (
                    isinstance(item, ast.Assign)
                    and isinstance(item.value, ast.Name)
                    and item.value.id in local
                ):
                    for target in item.targets:
                        if isinstance(target, ast.Name) and target.id not in local:
                            self.by_name.setdefault(target.id, []).append(
                                local[item.value.id]
                            )

    # -- queries ------------------------------------------------------------

    def defs_named(self, name: str) -> list[FunctionInfo]:
        return self.by_name.get(name, [])

    def resolve_unique(self, name: str) -> FunctionInfo | None:
        """The single def for ``name``, or None when absent/ambiguous.

        Interprocedural summaries only flow through unambiguous names —
        a polymorphic name must instead appear in a taint catalog.
        """
        defs = self.by_name.get(name, [])
        return defs[0] if len(defs) == 1 else None

    def callers_of(self, name: str) -> list[tuple[FunctionInfo, CallSite]]:
        """Every (caller, call site) invoking ``name`` anywhere in the project."""
        out = []
        for fn in self.functions:
            for call in fn.calls:
                if call.name == name:
                    out.append((fn, call))
        return out

    # -- import structure ---------------------------------------------------

    def module_imports(self) -> dict[str, set[str]]:
        """logical path -> logical paths of project modules it imports."""
        by_name = {m.module_name: m.logical for m in self.modules.values()}
        edges: dict[str, set[str]] = {}
        for module in self.modules.values():
            targets = set()
            for imported in module.repro_imports:
                # An import of a symbol resolves to its defining module,
                # a package import to its __init__.
                probe = imported
                while probe and probe not in by_name:
                    probe = probe.rpartition(".")[0]
                if probe and by_name[probe] != module.logical:
                    targets.add(by_name[probe])
            edges[module.logical] = targets
        return edges

    def package_imports(self) -> dict[str, set[str]]:
        """First-level package -> packages it imports (the layering table)."""
        edges: dict[str, set[str]] = {}
        for source, targets in self.module_imports().items():
            src_pkg = source.split("/")[0] if "/" in source else "<root>"
            bucket = edges.setdefault(src_pkg, set())
            for target in targets:
                dst_pkg = target.split("/")[0] if "/" in target else "<root>"
                if dst_pkg != src_pkg:
                    bucket.add(dst_pkg)
        return edges

    def package_layers(self) -> list[list[str]]:
        """Packages grouped bottom-up: layer 0 imports nothing below it.

        Cycles collapse into one layer (reported together) rather than
        erroring — the layering table is documentation, not a gate.
        """
        edges = self.package_imports()
        remaining = dict(edges)
        layers: list[list[str]] = []
        placed: set[str] = set()
        while remaining:
            ready = sorted(
                pkg for pkg, deps in remaining.items() if deps <= placed
            )
            if not ready:  # cycle: take the whole strongly-tangled rest
                ready = sorted(remaining)
            layers.append(ready)
            placed.update(ready)
            for pkg in ready:
                remaining.pop(pkg)
        return layers
