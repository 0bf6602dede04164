"""Domain lint rules for the AISE/BMT reproduction.

Every rule guards one invariant of the paper (Rogers et al., MICRO 2007)
or one discipline of this repository:

========  ==================================================================
SEC001    Seed material must come from :mod:`repro.core.seeds` — no ad-hoc
          address-derived seeds (paper section 4: AISE's security argument
          is precisely that seeds are *not* address-derived; CROSSLINE
          broke SEV by violating the equivalent assumption).
SEC002    No unkeyed hash where a keyed MAC is required (paper section 5:
          every authentication primitive is keyed with an on-chip secret).
SEC003    Counter state only moves through the monotonic APIs in
          :mod:`repro.core.counters` (paper sections 4.1/4.3: counter
          reuse is pad reuse).
SEC004    No reaching into another object's private state (``x.y._z``):
          volatile on-chip state (counter caches, trusted Merkle nodes)
          is cleared/queried through public APIs so the security-
          relevant lifecycle is auditable at the owning class.
DET001    No wall-clock or unseeded randomness in the library (trace-
          driven runs must be bit-reproducible); ``evalx`` reporting is
          exempt.
SIM001    Timing costs come from :class:`repro.core.config.MachineConfig`,
          not from literals sprinkled through the simulator (section 6's
          parameters live in one place).
SCH001    The functional machine, the timing simulator, and the kernel
          never branch on ``ENC_*``/``INT_*`` scheme constants — scheme
          behavior lives in the :mod:`repro.schemes` descriptors, so a
          new scheme is one new file, not a hunt through if/elif chains.
SCH002    Merkle tree node state mutates only through the tree's own
          API (``update``/``flush_pending``/``drain``/``build``) — no
          direct writes to a tree's node stores or root register outside
          :mod:`repro.integrity`. The coalescing write-back policy's
          soundness argument (the dirty set is authoritative; drains are
          bottom-up) holds only if every mutation goes through it.
OBS001    Statistics objects mutate only inside their owning component;
          everyone else observes them through the pull-model adapters in
          :mod:`repro.obs.adapters` (and resets via ``reset_stats()``),
          so reported numbers have exactly one source of truth.
OBS002    Metrics register only through :mod:`repro.obs.adapters` — no
          ad-hoc ``registry.counter()/bind()/...`` from engine code, so
          the metric namespace (and the fleet merge semantics and
          exporters built on it) is auditable in one module.
API001    Example scripts (the tutorial surface) import only the
          :mod:`repro.api` facade — never ``repro.*`` internals — so the
          facade provably covers every documented workflow and internal
          modules stay free to refactor.
GEN001    No bare ``except:``.
GEN002    No mutable default arguments.
========  ==================================================================
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath
from typing import Iterator

from .engine import FileContext, Finding, Rule, register

# -- shared AST helpers ------------------------------------------------------

_ADDRESS_NAMES = {
    "paddr",
    "vaddr",
    "addr",
    "address",
    "block_number",
    "page_index",
    "page_idx",
    "frame_index",
}
_ADDRESS_SUFFIXES = ("_paddr", "_vaddr", "_addr", "_address")


def _is_addressy(name: str) -> bool:
    return name in _ADDRESS_NAMES or name.endswith(_ADDRESS_SUFFIXES)


def _target_name(node: ast.AST) -> str | None:
    """The terminal name of an assignment target (``x`` or ``obj.x``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


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


def _assign_targets(node: ast.AST) -> list[ast.expr]:
    """Flattened assignment targets of an Assign/AnnAssign/AugAssign."""
    if isinstance(node, ast.Assign):
        targets: list[ast.expr] = []
        for t in node.targets:
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            else:
                targets.append(t)
        return targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def _contains_address_bitop(expr: ast.AST) -> bool:
    """True if ``expr`` mixes an address-derived name into a ``<<``/``|``."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.LShift, ast.BitOr)):
            for leaf in ast.walk(sub):
                name = None
                if isinstance(leaf, ast.Name):
                    name = leaf.id
                elif isinstance(leaf, ast.Attribute):
                    name = leaf.attr
                if name is not None and _is_addressy(name):
                    return True
    return False


def _has_literal_at_least(expr: ast.AST, minimum: int) -> ast.Constant | None:
    for sub in ast.walk(expr):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, (int, float))
            and not isinstance(sub.value, bool)
            and sub.value >= minimum
        ):
            return sub
    return None


# -- SEC001: seed construction goes through core.seeds -----------------------


@register
class SeedProvenanceRule(Rule):
    id = "SEC001"
    severity = "error"
    title = "seed construction must go through repro.core.seeds"
    rationale = (
        "AISE's security argument (paper section 4) is that encryption "
        "seeds are address-independent and globally unique; composing "
        "seed material ad hoc — especially from addresses — reintroduces "
        "the pad-reuse bugs of the baseline schemes."
    )

    WATCHED = ("core", "crypto", "integrity")
    HOME = "core/seeds.py"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.under(*self.WATCHED) and not ctx.is_file(self.HOME)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        return_owner = self._return_owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                if node.name.endswith("SeedScheme"):
                    yield self.finding(
                        ctx,
                        node,
                        f"seed scheme {node.name!r} defined outside core/seeds.py; "
                        "add it to the registry in repro.core.seeds instead",
                    )
                    continue
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                        item.name in ("seed", "seeds_for_block")
                    ):
                        yield self.finding(
                            ctx,
                            item,
                            f"method {item.name!r} defines seed composition outside "
                            "core/seeds.py; use a SeedScheme from repro.core.seeds",
                        )
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for target in _assign_targets(node):
                    name = _target_name(target)
                    if name is None or "seed" not in name.lower() or "audit" in name.lower():
                        continue
                    value = getattr(node, "value", None)
                    if value is not None and _contains_address_bitop(value):
                        yield self.finding(
                            ctx,
                            node,
                            f"{name!r} is composed from address-derived material; "
                            "seeds must come from a repro.core.seeds SeedScheme",
                        )
            elif isinstance(node, ast.Return) and node.value is not None:
                # Only flag returns from functions that are seed factories.
                parent = return_owner.get(id(node))
                if (
                    parent is not None
                    and "seed" in parent.lower()
                    and _contains_address_bitop(node.value)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"function {parent!r} returns address-derived seed material; "
                        "seeds must come from a repro.core.seeds SeedScheme",
                    )

    @staticmethod
    def _return_owners(tree: ast.Module) -> dict[int, str]:
        """Map each Return node to its innermost enclosing function name."""
        owners: dict[int, str] = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(fn):
                    if isinstance(sub, ast.Return):
                        owners[id(sub)] = fn.name  # innermost visited last (walk order)
        return owners


# -- SEC002: keyed MACs only -------------------------------------------------


@register
class UnkeyedHashRule(Rule):
    id = "SEC002"
    severity = "error"
    title = "no unkeyed hash where a keyed MAC is required"
    rationale = (
        "Every authentication primitive in the design is keyed with an "
        "on-chip secret (paper section 5); an unkeyed digest is forgeable "
        "by the memory adversary."
    )

    EXEMPT_DIRS = ("crypto",)
    EXEMPT_FILES = ("integrity/merkle.py",)
    UNKEYED = {"sha1", "sha256", "sha384", "sha512", "md5"}
    BLAKE = {"blake2s", "blake2b"}
    KEYING_KWARGS = {"key", "person", "salt"}

    def applies(self, ctx: FileContext) -> bool:
        return not (ctx.under(*self.EXEMPT_DIRS) or ctx.is_file(*self.EXEMPT_FILES))

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name is None:
                continue
            if name in self.UNKEYED:
                yield self.finding(
                    ctx,
                    node,
                    f"unkeyed digest {name!r}; use a keyed MAC from repro.crypto.mac "
                    "(make_mac / Blake2Mac) instead",
                )
            elif name in self.BLAKE:
                kwargs = {kw.arg for kw in node.keywords}
                if not (kwargs & self.KEYING_KWARGS):
                    yield self.finding(
                        ctx,
                        node,
                        f"{name!r} without key=/person=/salt= is an unkeyed hash; "
                        "bind it to an on-chip secret or domain-separate it",
                    )


# -- SEC003: counters move only through the monotonic APIs -------------------


@register
class CounterMutationRule(Rule):
    id = "SEC003"
    severity = "error"
    title = "counter fields mutate only via repro.core.counters APIs"
    rationale = (
        "A counter that can be rolled back or skipped is a reused pad "
        "(paper sections 4.1/4.3) and a replay hole (section 5.2); all "
        "mutation goes through the increment/overflow APIs so "
        "monotonicity is auditable in one file."
    )

    HOME = "core/counters.py"
    FIELDS = {"minors", "major", "lpid"}

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.is_file(self.HOME)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            for target in _assign_targets(node):
                field = None
                if isinstance(target, ast.Attribute) and target.attr in self.FIELDS:
                    field = target.attr
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in self.FIELDS
                ):
                    field = target.value.attr
                if field is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"raw write to counter field {field!r}; use the monotonic "
                        "APIs in repro.core.counters (increment/fresh/from_bytes)",
                    )


# -- SEC004: no cross-module private state access ----------------------------


@register
class PrivateStateReachRule(Rule):
    id = "SEC004"
    severity = "warning"
    title = "no reaching into another object's private state"
    rationale = (
        "Security-relevant volatile state — the AISE counter cache, the "
        "Merkle tree's trusted node copies — must be cleared and queried "
        "through the owning class's public API (clear_volatile, "
        "has_cached_counters, ...) so its lifecycle is auditable in one "
        "place; a foreign `obj.engine._cache.clear()` silently bypasses "
        "that audit trail."
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            # `self._x` / `machine._x` (Name-rooted, depth 1) is the class
            # or a friend touching its own field; a chained `a.b._x` is one
            # object reaching through another into private state.
            if isinstance(node.value, ast.Attribute):
                dotted = _dotted(node) or attr
                yield self.finding(
                    ctx,
                    node,
                    f"access to private state {dotted!r} through another "
                    "object; add a public method on the owning class",
                )


# -- SCH001: scheme dispatch lives in repro.schemes, not if/elif chains -------


@register
class SchemeConstantDispatchRule(Rule):
    id = "SCH001"
    severity = "error"
    title = "no ENC_*/INT_* scheme dispatch outside repro.schemes"
    rationale = (
        "Scheme-specific behavior (counter geometry, engine choice, "
        "metadata traffic, swap policy) is owned by the descriptors in "
        "repro.schemes; an ENC_*/INT_* comparison in the machine, the "
        "timing simulator, or the kernel re-scatters that knowledge and "
        "breaks the one-file-per-scheme extension contract."
    )

    WATCHED_FILES = ("core/machine.py", "sim/simulator.py", "osmodel/kernel.py")
    CONSTANT_RE = re.compile(r"^(ENC|INT)_[A-Z0-9]+$")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.is_file(*self.WATCHED_FILES)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if self.CONSTANT_RE.match(alias.name):
                        yield self.finding(
                            ctx,
                            node,
                            f"import of scheme constant {alias.name!r}; consult "
                            "the scheme descriptor (repro.schemes) instead",
                        )
            elif isinstance(node, ast.Name) and self.CONSTANT_RE.match(node.id):
                yield self.finding(
                    ctx,
                    node,
                    f"reference to scheme constant {node.id!r}; scheme-"
                    "specific behavior belongs in a repro.schemes descriptor",
                )


# -- SCH002: tree node state mutates only through the tree's own API ---------


@register
class TreeNodeMutationRule(Rule):
    id = "SCH002"
    severity = "error"
    title = "no direct tree node-state mutation outside repro.integrity"
    rationale = (
        "The Merkle tree's soundness argument depends on every node "
        "mutation flowing through the tree's own API (update, "
        "flush_pending, drain, build): under the coalescing write-back "
        "policy the dirty set is authoritative and drains bottom-up, so "
        "a direct write to a node store or the root register from "
        "outside repro.integrity silently forks the tree's view of "
        "memory."
    )

    # The node-state containers of MerkleTree.
    NODE_STATE = frozenset({"_dirty", "_trusted", "_materialized", "nodes"})
    # Mutating container methods (set/dict/OrderedDict surface).
    MUTATORS = frozenset(
        {"add", "discard", "remove", "pop", "popitem", "clear",
         "update", "setdefault", "move_to_end"}
    )

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.under("integrity")

    @staticmethod
    def _via_tree(node: ast.AST) -> bool:
        """True if the attribute chain is rooted in something tree-ish
        (``tree``, ``self.tree``, ``machine.tree``, ``self._tree``...)."""
        while isinstance(node, ast.Attribute):
            if "tree" in node.attr.lower():
                return True
            node = node.value
        return isinstance(node, ast.Name) and "tree" in node.id.lower()

    def _is_node_state(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Subscript):
            expr = expr.value
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr in self.NODE_STATE
            and self._via_tree(expr.value)
        )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            for target in _assign_targets(node):
                if self._is_node_state(target):
                    dotted = _dotted(target) or _dotted(getattr(target, "value", target))
                    yield self.finding(
                        ctx,
                        node,
                        f"direct write to tree node state {dotted or '<expr>'!r}; "
                        "mutate through the tree's update/flush_pending/drain API",
                    )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                # tree._dirty.pop(...), machine.tree._materialized.add(...)
                if func.attr in self.MUTATORS and self._is_node_state(func.value):
                    yield self.finding(
                        ctx,
                        node,
                        f"mutating call {func.attr!r} on tree node state; "
                        "mutate through the tree's update/flush_pending/drain API",
                    )
                # tree.root.store(...): the root register is tree state too.
                elif (
                    func.attr == "store"
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "root"
                    and self._via_tree(func.value.value)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "direct root-register store through a tree; the root "
                        "refreshes only from the tree's own drain/build",
                    )


# -- DET001: determinism of trace-driven runs --------------------------------


@register
class DeterminismRule(Rule):
    id = "DET001"
    severity = "error"
    title = "no wall-clock time or unseeded randomness in the library"
    # Applies to tests/benchmarks too: a wall-clock read in a test makes
    # its failures irreproducible (benchmarks time themselves with the
    # allowed perf_counter).
    library_only = False
    rationale = (
        "Trace-driven evaluation must be bit-reproducible run to run; "
        "wall-clock reads and unseeded RNGs make results (and test "
        "failures) irreproducible. Reporting code in evalx/ is exempt "
        "(it may time itself with perf_counter)."
    )

    EXEMPT_DIRS = ("evalx",)
    WALL_CLOCK = {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
    RANDOM_FNS = {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "getrandbits",
        "randbytes",
        "gauss",
    }
    NP_ALIASES = {"np", "numpy"}
    NP_SEEDED_FACTORIES = {"default_rng", "RandomState", "SeedSequence", "Generator"}

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.under(*self.EXEMPT_DIRS)

    def _banned_bare_names(self, tree: ast.Module) -> dict[str, str]:
        """Names imported from time/random that are banned when called bare."""
        banned: dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module == "time":
                for alias in node.names:
                    if alias.name in ("time", "time_ns"):
                        banned[alias.asname or alias.name] = f"time.{alias.name}"
            elif node.module == "random":
                for alias in node.names:
                    if alias.name in self.RANDOM_FNS:
                        banned[alias.asname or alias.name] = f"random.{alias.name}"
        return banned

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        bare = self._banned_bare_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = _dotted(func)
            if dotted in self.WALL_CLOCK:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {dotted}(); use time.perf_counter() for "
                    "intervals (evalx only) or pass timestamps in explicitly",
                )
                continue
            if isinstance(func, ast.Name) and func.id in bare:
                yield self.finding(
                    ctx,
                    node,
                    f"call to {bare[func.id]} via bare import; wall-clock and "
                    "module-level randomness are banned outside evalx",
                )
                continue
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr in self.RANDOM_FNS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"random.{func.attr}() uses the unseeded global RNG; create "
                    "a seeded generator instead",
                )
                continue
            # numpy: np.random.<fn>(...) — only seeded generator factories pass.
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in self.NP_ALIASES
            ):
                fn = func.attr
                if fn in self.NP_SEEDED_FACTORIES:
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node,
                            f"np.random.{fn}() without a seed is nondeterministic; "
                            "pass an explicit seed",
                        )
                else:
                    yield self.finding(
                        ctx,
                        node,
                        f"np.random.{fn}() uses numpy's global RNG; use "
                        "np.random.default_rng(seed) instead",
                    )


# -- SIM001: timing parameters live in core/config.py ------------------------


@register
class LatencyLiteralRule(Rule):
    id = "SIM001"
    severity = "warning"
    title = "latency/cycle costs come from MachineConfig, not literals"
    rationale = (
        "The paper's timing parameters (section 6) are modelled in one "
        "place — repro.core.config.MachineConfig — so sweeps and ablations "
        "change them consistently; a literal latency in the simulator "
        "silently escapes every sweep."
    )

    WATCHED = ("sim", "mem")
    NAME_RE = re.compile(r"latency|cycle|_ready|stall", re.IGNORECASE)
    MINIMUM = 2  # 0/1 resets and rounding guards are fine

    def applies(self, ctx: FileContext) -> bool:
        return ctx.under(*self.WATCHED)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = getattr(node, "value", None)
                if value is None:
                    continue
                for target in _assign_targets(node):
                    name = _target_name(target)
                    if name is None or not self.NAME_RE.search(name):
                        continue
                    literal = _has_literal_at_least(value, self.MINIMUM)
                    if literal is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"literal {literal.value!r} assigned to timing field "
                            f"{name!r}; route it through MachineConfig",
                        )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                sides = (node.left, node.right)
                latencyish = any(
                    (n := _target_name(s)) is not None and self.NAME_RE.search(n)
                    for s in sides
                )
                if not latencyish:
                    continue
                for side in sides:
                    if isinstance(side, ast.Constant) and isinstance(
                        side.value, (int, float)
                    ) and not isinstance(side.value, bool) and side.value >= self.MINIMUM:
                        yield self.finding(
                            ctx,
                            node,
                            f"literal {side.value!r} added to a cycle count; "
                            "route timing costs through MachineConfig",
                        )
                        break


# -- OBS001: stats objects mutate only inside their owners -------------------


def _passes_through_stats(node: ast.AST) -> bool:
    """True if an assignment target is, or dereferences, a ``stats`` attr."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr == "stats":
            return True
        node = node.value
    return False


@register
class StatsMutationRule(Rule):
    id = "OBS001"
    severity = "warning"
    title = "stats objects mutate only inside their owning component"
    rationale = (
        "The observability registry (repro.obs) binds pull-model gauges "
        "over each component's stats object; a foreign write — replacing "
        "a cache's stats wholesale, or bumping another object's counters "
        "— bypasses the owner's accounting and can diverge from what the "
        "registry (and thus every figure and trace) reports. Owners "
        "expose reset_stats() for the one legitimate foreign operation."
    )

    # Modules that define and therefore own a *Stats object. The obs
    # package itself only ever reads stats through bound gauges.
    OWNERS = (
        "mem/bus.py",
        "mem/cache.py",
        "osmodel/kernel.py",
        "core/prediction.py",
    )

    def applies(self, ctx: FileContext) -> bool:
        return not (ctx.under("obs") or ctx.is_file(*self.OWNERS))

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            for target in _assign_targets(node):
                if _passes_through_stats(target):
                    dotted = _dotted(target)
                    shown = dotted if dotted is not None else "a stats field"
                    yield self.finding(
                        ctx,
                        node,
                        f"direct mutation of {shown!r} outside the owning "
                        "component; call the owner's reset_stats() or read "
                        "values through repro.obs.adapters bindings",
                    )


# -- OBS002: fleet/engine metrics register through obs/adapters.py ------------


@register
class RegistryWriteRule(Rule):
    id = "OBS002"
    severity = "warning"
    title = "metrics register only through repro.obs.adapters"
    rationale = (
        "Every metric a registry exposes — including the engine-selection "
        "telemetry the fleet pipeline aggregates — is bound in "
        "repro.obs.adapters, so the full metric namespace (names, kinds, "
        "merge semantics, Prometheus exposition) is auditable in one "
        "module. An ad-hoc registry.counter()/bind() from engine code "
        "creates a metric the fleet merge rules and exporters never "
        "heard of; add a register_* adapter instead."
    )

    # The registration surface of MetricsRegistry/Scope. Reads
    # (get, snapshot) and scoping are fine anywhere; creating or binding
    # a metric is what must stay in the adapters module.
    REGISTER_METHODS = ("counter", "gauge", "bind", "histogram")

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.under("obs")

    @staticmethod
    def _is_registry_like(node: ast.expr) -> bool:
        dotted = _dotted(node)
        if dotted is None:
            return False
        return any(
            segment in ("registry", "scope")
            or segment.endswith(("_registry", "_scope"))
            for segment in dotted.split(".")
        )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in self.REGISTER_METHODS:
                continue
            if not self._is_registry_like(func.value):
                continue
            receiver = _dotted(func.value) or "a registry"
            yield self.finding(
                ctx,
                node,
                f"ad-hoc metric registration {receiver}.{func.attr}(...) "
                "outside repro.obs; route it through a register_* adapter "
                "in repro.obs.adapters so the fleet merge semantics and "
                "exporters cover it",
            )


# -- API001: examples import only the repro.api facade -----------------------


@register
class FacadeOnlyImportRule(Rule):
    id = "API001"
    severity = "error"
    title = "examples import only the repro.api facade"
    rationale = (
        "The examples are the tutorial: whatever they import is the "
        "supported surface. Holding them to repro.api (plus the package "
        "root, which re-exports it) keeps the facade honest — a workflow "
        "the facade cannot express fails the lint instead of quietly "
        "deep-importing — and leaves repro.* internals free to refactor "
        "without breaking documentation."
    )

    ALLOWED = ("repro", "repro.api")

    def applies(self, ctx: FileContext) -> bool:
        return "examples" in PurePath(ctx.path).parts

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                is_repro = module == "repro" or module.startswith("repro.")
                if node.level == 0 and not is_repro:
                    continue
                if node.level == 0 and module in self.ALLOWED:
                    continue
                shown = "." * node.level + module
                yield self.finding(
                    ctx,
                    node,
                    f"import from {shown!r}; examples must import from "
                    "'repro.api' (re-export the symbol there if it is "
                    "missing)",
                )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    is_repro = alias.name == "repro" or alias.name.startswith("repro.")
                    if is_repro and alias.name not in self.ALLOWED:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {alias.name!r}; examples must import "
                            "from 'repro.api' (re-export the symbol there "
                            "if it is missing)",
                        )


# -- GEN001/GEN002: general hygiene ------------------------------------------


@register
class BareExceptRule(Rule):
    id = "GEN001"
    severity = "warning"
    title = "no bare except clauses"
    library_only = False  # hygiene holds in tests and benchmarks too
    rationale = (
        "A bare except swallows IntegrityError and SanitizerError alike, "
        "turning a detected attack into silence; catch specific exceptions."
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx, node, "bare 'except:'; name the exception types to catch"
                )


@register
class MutableDefaultRule(Rule):
    id = "GEN002"
    severity = "warning"
    title = "no mutable default arguments"
    library_only = False  # hygiene holds in tests and benchmarks too
    rationale = (
        "A mutable default is shared across calls — for stateful machine "
        "models that means state leaking between supposedly independent "
        "simulations."
    )

    MUTABLE_CALLS = {"list", "dict", "set", "OrderedDict", "defaultdict", "deque"}

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in self.MUTABLE_CALLS
                )
                if bad:
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {node.name!r}; default to "
                        "None and create the object inside the function",
                    )
