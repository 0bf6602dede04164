"""Unit tests for the project graph: calls, resolution, imports, layers."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.engine import FileContext
from repro.analysis.graph import ProjectGraph, module_name_for


def ctx(logical: str, source: str) -> FileContext:
    return FileContext(
        f"src/repro/{logical}", textwrap.dedent(source), logical_path=logical
    )


def build(*pairs: tuple[str, str]) -> ProjectGraph:
    return ProjectGraph.build([ctx(logical, source) for logical, source in pairs])


class TestModuleNames:
    def test_plain_module(self):
        assert module_name_for("core/seeds.py") == "repro.core.seeds"

    def test_package_init(self):
        assert module_name_for("core/__init__.py") == "repro.core"

    def test_top_level(self):
        assert module_name_for("fastpath.py") == "repro.fastpath"


class TestCallExtraction:
    def test_method_call_site(self):
        graph = build(
            (
                "core/a.py",
                """
                class Engine:
                    def read(self, paddr):
                        return self.memory.read_block(paddr)
                """,
            )
        )
        (fn,) = graph.defs_named("read")
        (call,) = fn.calls
        assert call.name == "read_block"
        assert call.dotted == "self.memory.read_block"
        assert call.receiver == "memory"

    def test_nested_defs_own_their_calls(self):
        graph = build(
            (
                "core/a.py",
                """
                def outer():
                    def inner():
                        helper()
                    return inner
                """,
            )
        )
        (outer,) = graph.defs_named("outer")
        (inner,) = graph.defs_named("inner")
        assert [c.name for c in outer.calls] == []
        assert [c.name for c in inner.calls] == ["helper"]

    def test_arg_lookup_positional_keyword_and_starred(self):
        graph = build(
            (
                "core/a.py",
                """
                def caller(x, ys):
                    use(x, seed=x)
                    use(*ys)
                """,
            )
        )
        (fn,) = graph.defs_named("caller")
        plain = next(c for c in fn.calls if c.node.keywords)
        starred = next(c for c in fn.calls if not c.node.keywords)
        assert isinstance(plain.arg(0), ast.Name)
        assert isinstance(plain.arg(5, "seed"), ast.Name)
        assert starred.arg(0) is None  # *args splat is opaque


class TestResolution:
    SOURCES = (
        (
            "core/a.py",
            """
            def unique_helper(x):
                return x

            def poly(x):
                return x
            """,
        ),
        (
            "core/b.py",
            """
            def poly(y):
                return y

            def caller(v):
                return unique_helper(v)
            """,
        ),
    )

    def test_resolve_unique(self):
        graph = build(*self.SOURCES)
        fn = graph.resolve_unique("unique_helper")
        assert fn is not None and fn.module.logical == "core/a.py"

    def test_ambiguous_names_do_not_resolve(self):
        graph = build(*self.SOURCES)
        assert graph.resolve_unique("poly") is None
        assert len(graph.defs_named("poly")) == 2

    def test_callers_of(self):
        graph = build(*self.SOURCES)
        ((caller, site),) = graph.callers_of("unique_helper")
        assert caller.name == "caller"
        assert site.name == "unique_helper"

    def test_class_body_alias_widens_the_index(self):
        graph = build(
            (
                "crypto/c.py",
                """
                class Cipher:
                    def apply(self, data, seeds):
                        return data

                    encrypt = apply
                    decrypt = apply
                """,
            )
        )
        assert graph.defs_named("decrypt") == graph.defs_named("apply")
        assert graph.defs_named("encrypt") == graph.defs_named("apply")


class TestParams:
    def test_call_index_of_param_adjusts_for_self(self):
        graph = build(
            (
                "core/a.py",
                """
                class Engine:
                    def encrypt(self, data, seeds, *, audit):
                        return data
                """,
            )
        )
        (fn,) = graph.defs_named("encrypt")
        assert fn.params == ["self", "data", "seeds", "audit"]
        assert fn.call_index_of_param("data") == 0
        assert fn.call_index_of_param("seeds") == 1
        assert fn.call_index_of_param("audit") is None  # keyword-only
        assert fn.call_index_of_param("missing") is None


class TestImports:
    SOURCES = (
        ("core/machine.py", "X = 1\n"),
        (
            "osmodel/kernel.py",
            """
            from repro.core.machine import X

            def boot():
                return X
            """,
        ),
    )

    def test_module_imports(self):
        graph = build(*self.SOURCES)
        assert graph.module_imports()["osmodel/kernel.py"] == {"core/machine.py"}
        assert graph.module_imports()["core/machine.py"] == set()

    def test_package_layers_bottom_up(self):
        graph = build(*self.SOURCES)
        assert graph.package_imports()["osmodel"] == {"core"}
        layers = graph.package_layers()
        assert layers[0] == ["core"]
        assert layers[1] == ["osmodel"]


class TestPackageInitImports:
    """A relative import inside a package ``__init__`` resolves against
    that package, not its parent."""

    SOURCES = (
        ("__init__.py", ""),
        ("_lazy.py", "X = 1\n"),
        ("core/__init__.py", "from .machine import Machine\n"),
        ("core/machine.py", "class Machine:\n    pass\n"),
        ("fastpath/__init__.py", "from .._lazy import X\n"),
        (
            "api/__init__.py",
            """
            from ..core import Machine
            from .. import fastpath
            from . import schema
            """,
        ),
        ("api/schema.py", "from .. import core\n"),
    )

    def test_from_parent_package(self):
        graph = build(*self.SOURCES)
        api = graph.modules["api/__init__.py"]
        assert api.aliases["Machine"] == "repro.core.Machine"
        assert "repro.core" in api.repro_imports

    def test_from_package_names_the_submodule(self):
        graph = build(*self.SOURCES)
        api = graph.modules["api/__init__.py"]
        assert api.aliases["fastpath"] == "repro.fastpath"
        assert "repro.fastpath" in api.repro_imports
        assert "repro" not in api.repro_imports
        assert graph.module_imports()["api/__init__.py"] == {
            "core/__init__.py", "fastpath/__init__.py", "api/schema.py"}

    def test_own_package_from_init_and_module(self):
        graph = build(*self.SOURCES)
        edges = graph.module_imports()
        assert edges["core/__init__.py"] == {"core/machine.py"}
        assert edges["fastpath/__init__.py"] == {"_lazy.py"}
        assert edges["api/schema.py"] == {"core/__init__.py"}

    def test_layers(self):
        graph = build(*self.SOURCES)
        assert graph.package_imports()["api"] == {"core", "fastpath"}
        assert graph.package_imports()["fastpath"] == {"<root>"}
        assert graph.package_layers()[:2] == [["<root>", "core"], ["fastpath"]]
