"""The contract checkers: one class per bug the repo already shipped.

Every code encodes a *historical* failure mode, not a style opinion —
the ``explain`` text names the incident.  Checkers are deliberately
syntactic: they flag the pattern, and a human either fixes the code
or writes a reasoned ``# repro: allow(CODE) why`` waiver.  A linter
that tries to prove data flow ends up trusted nowhere; one that flags
a short list of known-fatal constructs, with an escape hatch that
forces a written justification, stays enforceable in CI.

Scope lives in :mod:`repro.devtools.project`: deterministic modules
(``rib/``, ``simulator/``, ``analysis/``, ``scenarios/``), hot-path
modules (``mrt/``, ``bgp/wire.py``, ``simulator/``) and the CLI.
"""

from __future__ import annotations

import ast
import hashlib
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.findings import Finding
from repro.devtools.project import Project, SourceModule

#: The gated, byte-neutral instrumentation surface hot paths may use:
#: module-level helpers that check one boolean and allocate nothing
#: while disabled (see ``repro/obs/metrics.py``), plus the flag probe.
GATED_OBS_HELPERS = frozenset(
    {"phase", "count", "gauge", "record_timing", "timed",
     "metrics_enabled"}
)

#: ``cli.py`` functions that own stdout.  Everything else prints with
#: an explicit ``file=`` (almost always stderr) or routes through one
#: of these, so "what can possibly write to stdout" stays grep-able.
CLI_STDOUT_EMITTERS = frozenset({"_emit", "_emit_json"})

#: Module-level names that look like a memo/cache (MEMO001).
_CACHE_NAME_RE = re.compile(r"(^|_)(MEMO|MEMOS|CACHE|CACHES)$")

#: Where the cache layer lives (CACHE001 inputs).
_SERIALIZE_REL = "scenarios/serialize.py"
_RUNNER_REL = "scenarios/runner.py"
_ENGINE_REL = "scenarios/engine.py"

#: How many hex digits of the schema digest are recorded.
_FINGERPRINT_LENGTH = 12


class Checker:
    """Base checker: a code, an explanation, and two hook points."""

    code: str = ""
    title: str = ""
    #: Rationale + the historical bug this code encodes (``--explain``).
    explain: str = ""

    def check(self, module: SourceModule) -> "Iterator[Finding]":
        """Per-module findings (most checkers live here)."""
        return iter(())

    def finalize(self, project: Project) -> "Iterator[Finding]":
        """Whole-project findings, after every module was parsed."""
        return iter(())


# ----------------------------------------------------------------------
# DET001 — salted hash()/id() in deterministic modules
# ----------------------------------------------------------------------
class Det001SaltedHash(Checker):
    code = "DET001"
    title = "bare hash()/id() in a deterministic module"
    explain = """\
Deterministic modules (rib/, simulator/, analysis/, scenarios/) feed
persisted results and collector metrics, which must be bit-identical
across processes and runs.  Python salts str/bytes hash() per process
(PYTHONHASHSEED) and id() is an address — both differ run to run, so
any value derived from them that reaches output breaks reproducibility
silently.

History: PR 1's sweep engine keyed a decision-process tie breaker on
hash(); identical specs produced different winners across processes
until it was replaced with zlib.crc32 over a canonical encoding.

Fix: crc32/sha256 over repr()/canonical bytes for stable digests;
explicit integer ids or registries for identity keys.  hash() inside a
__hash__ method is fine (it never leaves the process by contract) and
is not flagged.  In-process-only uses take a reasoned
'# repro: allow(DET001) ...' waiver."""

    def check(self, module: SourceModule) -> "Iterator[Finding]":
        if module.tree is None or not module.is_deterministic:
            return
        for node, in_hash in _walk_with_hash_scope(module.tree):
            if in_hash or not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("hash", "id"):
                yield module.finding(
                    self.code,
                    node,
                    f"bare {func.id}() is process-salted; derive"
                    " stable values (crc32/sha256 over canonical"
                    " bytes) or waive with a reason",
                )


def _walk_with_hash_scope(tree) -> "Iterator[Tuple[ast.AST, bool]]":
    """Yield (node, inside___hash__) over the whole tree."""
    stack: "List[Tuple[ast.AST, bool]]" = [(tree, False)]
    while stack:
        node, in_hash = stack.pop()
        yield node, in_hash
        child_scope = in_hash or (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "__hash__"
        )
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_scope))


# ----------------------------------------------------------------------
# DET002 — ambient nondeterminism in deterministic modules
# ----------------------------------------------------------------------
class Det002AmbientEntropy(Checker):
    code = "DET002"
    title = "ambient entropy source in a deterministic module"
    explain = """\
Deterministic modules must draw every random bit from the spec's seed
and every timestamp from simulated time.  The ambient sources — the
module-level random.* functions (and unseeded random.Random()),
time.time(), os.urandom, uuid.*, datetime.now() — differ per run, and
iterating a set (or set()/frozenset() call) without sorted() leaks the
salted hash order into whatever consumes the loop.

History: the seed refactor in PR 1 exists because early drivers mixed
global random.* calls with per-run RNGs; two "identical" runs agreed
only when PYTHONHASHSEED happened to match.

Fix: thread a seeded random.Random(seed) through; use the event
queue's clock for time; wrap unordered iteration in sorted(...).
Wall-clock metadata that never reaches result bytes (manifest
timestamps) takes a reasoned waiver."""

    _TIME_FUNCS = frozenset({"time", "time_ns"})
    _DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    def check(self, module: SourceModule) -> "Iterator[Finding]":
        if module.tree is None or not module.is_deterministic:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                message = self._call_violation(node)
                if message is not None:
                    yield module.finding(self.code, node, message)
            iter_node = self._unordered_iteration(node)
            if iter_node is not None:
                yield module.finding(
                    self.code,
                    iter_node,
                    "iteration over a set is salted-hash ordered;"
                    " wrap in sorted(...) before it feeds output",
                )

    def _call_violation(self, node: ast.Call) -> "Optional[str]":
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        if isinstance(owner, ast.Name):
            if owner.id == "random":
                if func.attr != "Random":
                    return (
                        f"module-level random.{func.attr}() draws from"
                        " the shared unseeded RNG; thread a seeded"
                        " random.Random(seed) instead"
                    )
                if not node.args and not node.keywords:
                    return (
                        "random.Random() without a seed is entropy-"
                        "seeded; pass the spec seed"
                    )
                return None
            if owner.id == "time" and func.attr in self._TIME_FUNCS:
                return (
                    f"time.{func.attr}() is wall clock; deterministic"
                    " code uses simulated/event time (durations may"
                    " use time.perf_counter/monotonic)"
                )
            if owner.id == "os" and func.attr == "urandom":
                return "os.urandom() is pure entropy; derive from the seed"
            if owner.id == "uuid" and func.attr.startswith("uuid"):
                return (
                    f"uuid.{func.attr}() is host/entropy derived; use"
                    " deterministic identifiers"
                )
            if owner.id == "secrets":
                return "secrets.* is pure entropy; derive from the seed"
        if func.attr in self._DATETIME_FUNCS and _mentions_datetime(owner):
            return (
                f"datetime {func.attr}() reads the wall clock; pass"
                " timestamps in explicitly"
            )
        return None

    @staticmethod
    def _unordered_iteration(node) -> "Optional[ast.AST]":
        """The unordered iterable of a for/comprehension, if any."""
        sources = []
        if isinstance(node, ast.For):
            sources.append(node.iter)
        elif isinstance(node, ast.comprehension):
            sources.append(node.iter)
        for source in sources:
            if isinstance(source, (ast.Set, ast.SetComp)):
                return source
            if (
                isinstance(source, ast.Call)
                and isinstance(source.func, ast.Name)
                and source.func.id in ("set", "frozenset")
            ):
                return source
        return None


def _mentions_datetime(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("datetime", "date")
    if isinstance(node, ast.Attribute):
        return node.attr in ("datetime", "date")
    return False


# ----------------------------------------------------------------------
# OBS001 — ungated instrumentation on the hot path
# ----------------------------------------------------------------------
class Obs001UngatedInstrumentation(Checker):
    code = "OBS001"
    title = "ungated repro.obs use in a hot-path module"
    explain = """\
Hot-path modules (mrt/, bgp/wire.py, simulator/) decode or process
millions of records; PR 6's instrumentation is admissible there only
through the gated module-level helpers (phase/count/gauge/
record_timing/timed and the metrics_enabled probe), which cost one
boolean branch while disabled and are proven byte-neutral.  Anything
else from repro.obs — journals, the registry object, profiling,
set_metrics_enabled — allocates, does I/O, or mutates global state on
a path that must stay flat and deterministic.

History: the overhead benchmark (then bench_obs.py) pinned a <=5%
enabled / ~0% disabled budget; an early draft held a registry
reference in the decode loop and wrote timings unconditionally,
blowing the disabled budget and making worker payloads differ
byte-for-byte.

Fix: import the gated helpers ('from repro.obs import metrics as
obs_metrics' and call only the gated names, or import the helpers
directly) and keep everything heavier in the engine/CLI layer."""

    _ALLOWED_FROM_OBS = GATED_OBS_HELPERS | {"metrics"}

    def check(self, module: SourceModule) -> "Iterator[Finding]":
        if module.tree is None or not module.is_hot_path:
            return
        #: Names bound to the metrics module / the obs package.
        metrics_aliases: "Set[str]" = set()
        package_aliases: "Set[str]" = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                for finding in self._check_import_from(
                    module, node, metrics_aliases, package_aliases
                ):
                    yield finding
            elif isinstance(node, ast.Import):
                for finding in self._check_import(module, node):
                    yield finding
        if not metrics_aliases and not package_aliases:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if not isinstance(owner, ast.Name):
                continue
            if owner.id in metrics_aliases:
                allowed = GATED_OBS_HELPERS
            elif owner.id in package_aliases:
                allowed = self._ALLOWED_FROM_OBS
            else:
                continue
            if node.attr not in allowed:
                yield module.finding(
                    self.code,
                    node,
                    f"{owner.id}.{node.attr} is not part of the gated"
                    " no-op instrumentation surface"
                    f" ({', '.join(sorted(GATED_OBS_HELPERS))})",
                )

    def _check_import_from(
        self, module, node, metrics_aliases, package_aliases
    ) -> "Iterator[Finding]":
        target = node.module or ""
        if node.level or not (
            target == "repro" or target.startswith("repro.")
        ):
            return
        if target == "repro":
            for alias in node.names:
                if alias.name == "obs":
                    package_aliases.add(alias.asname or alias.name)
            return
        if not target.startswith("repro.obs"):
            return
        if target == "repro.obs":
            for alias in node.names:
                if alias.name == "metrics":
                    metrics_aliases.add(alias.asname or alias.name)
                elif alias.name not in self._ALLOWED_FROM_OBS:
                    yield module.finding(
                        self.code,
                        node,
                        f"hot-path import of repro.obs.{alias.name};"
                        " only the gated helpers"
                        f" ({', '.join(sorted(GATED_OBS_HELPERS))})"
                        " belong here",
                    )
            return
        if target == "repro.obs.metrics":
            for alias in node.names:
                if alias.name not in GATED_OBS_HELPERS:
                    yield module.finding(
                        self.code,
                        node,
                        f"hot-path import of"
                        f" repro.obs.metrics.{alias.name} bypasses the"
                        " gated helper surface",
                    )
            return
        yield module.finding(
            self.code,
            node,
            f"hot-path import from {target}; only"
            " repro.obs.metrics' gated helpers belong here",
        )

    def _check_import(self, module, node) -> "Iterator[Finding]":
        for alias in node.names:
            if alias.name == "repro.obs" or alias.name.startswith(
                "repro.obs."
            ):
                yield module.finding(
                    self.code,
                    node,
                    f"hot-path 'import {alias.name}'; import the gated"
                    " helpers explicitly (from repro.obs import"
                    " metrics as obs_metrics)",
                )


# ----------------------------------------------------------------------
# IO001 — stdout discipline in the CLI
# ----------------------------------------------------------------------
class Io001StdoutDiscipline(Checker):
    code = "IO001"
    title = "undesignated stdout write in cli.py"
    explain = """\
The CLI's stdout contract is machine-JSON-owns-stdout: a --json run's
stdout must stay one parseable document, human tables go to stdout
only through the designated emitters (_emit/_emit_json), and
everything diagnostic — progress, status views, errors — says
file=sys.stderr explicitly.  A bare print() anywhere else in cli.py
is a latent pipe-breaker: it works until someone calls it on the
--json path and a downstream json.load dies.

History: the PR 6 status view originally printed its human table to
stdout; piping 'sweep --status --json' worked while plain
'sweep --status' contaminated captures, which is why the table moved
to stderr and why this contract is now lintable.

Fix: route stdout output through _emit()/_emit_json(), or add
file=sys.stderr (any explicit file= passes)."""

    def check(self, module: SourceModule) -> "Iterator[Finding]":
        if module.tree is None or not module.is_cli:
            return
        for node, function_name in _walk_with_function_scope(module.tree):
            if function_name in CLI_STDOUT_EMITTERS:
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                if not any(
                    keyword.arg == "file" for keyword in node.keywords
                ):
                    yield module.finding(
                        self.code,
                        node,
                        "bare print() outside the designated emitters;"
                        " use _emit()/_emit_json() for stdout or pass"
                        " file=sys.stderr",
                    )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "write"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "stdout"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "sys"
            ):
                yield module.finding(
                    self.code,
                    node,
                    "direct sys.stdout.write outside the designated"
                    " emitters; route through _emit()/_emit_json()",
                )


def _walk_with_function_scope(
    tree,
) -> "Iterator[Tuple[ast.AST, Optional[str]]]":
    """Yield (node, innermost enclosing function name) pairs."""
    stack: "List[Tuple[ast.AST, Optional[str]]]" = [(tree, None)]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_scope = node.name
        else:
            child_scope = scope
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_scope))


# ----------------------------------------------------------------------
# CACHE001 — result schema drift without a CACHE_VERSION bump
# ----------------------------------------------------------------------
class Cache001SchemaFingerprint(Checker):
    code = "CACHE001"
    title = "result schema changed without a CACHE_VERSION bump"
    explain = """\
Cache entries under --cache-dir outlive the code that wrote them; the
only thing standing between an old entry and a silent wrong answer is
CACHE_VERSION.  This checker fingerprints the serialized result
schema — the payload keys emitted by result_to_dict/failure_to_dict
plus the ScenarioResult and SweepReport field sets — and compares it
to CACHE_SCHEMA_FINGERPRINT, recorded next to CACHE_VERSION in
scenarios/runner.py.  Growing the schema therefore forces an edit on
the exact lines where the version decision lives.

History: PR 5 added reader_stats to mrt-replay results; v1 cache
entries replayed byte-different from fresh computations until the
v1 -> v2 bump.  The bug class is 'schema grew, version did not'.

Fix: when this fires, decide whether the change alters replayed
bytes; bump CACHE_VERSION if so (document why if not), then set
CACHE_SCHEMA_FINGERPRINT to the computed value in the message."""

    def finalize(self, project: Project) -> "Iterator[Finding]":
        runner = project.module(_RUNNER_REL)
        serialize = project.module(_SERIALIZE_REL)
        engine = project.module(_ENGINE_REL)
        if runner is None or serialize is None or engine is None:
            # Partial scan (single files, fixtures): the cache layer
            # is not in view, so there is nothing to compare.
            return
        if None in (runner.tree, serialize.tree, engine.tree):
            return
        computed = schema_fingerprint(project)
        if computed is None:
            yield runner.finding(
                self.code,
                (1, 0),
                "could not derive the result schema (result_to_dict /"
                " ScenarioResult / SweepReport not found); the cache"
                " contract is unverifiable",
            )
            return
        recorded, node = _module_constant(
            runner.tree, "CACHE_SCHEMA_FINGERPRINT"
        )
        version_node = _module_constant(runner.tree, "CACHE_VERSION")[1]
        if recorded is None:
            anchor = version_node if version_node is not None else (1, 0)
            yield runner.finding(
                self.code,
                anchor,
                "no CACHE_SCHEMA_FINGERPRINT recorded next to"
                f" CACHE_VERSION; add CACHE_SCHEMA_FINGERPRINT ="
                f" \"{computed}\"",
            )
            return
        if recorded != computed:
            yield runner.finding(
                self.code,
                node,
                f"serialized result schema changed (computed {computed},"
                f" recorded {recorded}); bump CACHE_VERSION if replayed"
                " bytes change, then set CACHE_SCHEMA_FINGERPRINT ="
                f" \"{computed}\"",
            )


def schema_fingerprint(project: Project) -> "Optional[str]":
    """The current serialized-result schema digest, or None.

    Tagged by origin so a key moving between the payload and a
    dataclass still changes the digest.
    """
    serialize = project.module(_SERIALIZE_REL)
    runner = project.module(_RUNNER_REL)
    engine = project.module(_ENGINE_REL)
    if serialize is None or runner is None or engine is None:
        return None
    if None in (serialize.tree, runner.tree, engine.tree):
        return None
    tagged: "List[str]" = []
    found_any = {"functions": False, "result": False, "sweep": False}
    for name in ("result_to_dict", "failure_to_dict"):
        function = _module_function(serialize.tree, name)
        if function is None:
            continue
        found_any["functions"] = True
        for key in _serialized_keys(function):
            tagged.append(f"{name}:{key}")
    result_fields = _dataclass_fields(engine.tree, "ScenarioResult")
    if result_fields is not None:
        found_any["result"] = True
        tagged.extend(f"ScenarioResult:{name}" for name in result_fields)
    sweep_fields = _dataclass_fields(runner.tree, "SweepReport")
    if sweep_fields is not None:
        found_any["sweep"] = True
        tagged.extend(f"SweepReport:{name}" for name in sweep_fields)
    if not all(found_any.values()):
        return None
    canonical = "\n".join(sorted(tagged)).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:_FINGERPRINT_LENGTH]


def _serialized_keys(function: ast.AST) -> "Set[str]":
    """String keys a serializer emits: dict literals + payload stores."""
    keys: "Set[str]" = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                key = _subscript_str_key(target)
                if key is not None:
                    keys.add(key)
    return keys


def _subscript_str_key(node) -> "Optional[str]":
    if not isinstance(node, ast.Subscript):
        return None
    index = node.slice
    # Python 3.8 wraps constant subscripts in ast.Index.
    if index.__class__.__name__ == "Index":
        index = index.value  # pragma: no cover (3.8 only)
    if isinstance(index, ast.Constant) and isinstance(index.value, str):
        return index.value
    return None


def _module_function(tree, name: str) -> "Optional[ast.AST]":
    for node in tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ):
            return node
    return None


def _dataclass_fields(tree, class_name: str) -> "Optional[List[str]]":
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name != class_name:
            continue
        names: "List[str]" = []
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                names.append(statement.target.id)
        return names
    return None


def _module_constant(
    tree, name: str
) -> "Tuple[Optional[str], Optional[ast.AST]]":
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == name:
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    return value.value, node
                return None, node
    return None, None


# ----------------------------------------------------------------------
# MEMO001 — unbounded module-level caches
# ----------------------------------------------------------------------
class Memo001UnboundedCache(Checker):
    code = "MEMO001"
    title = "module-level dict cache not built on bounded_store"
    explain = """\
Module-level dict caches outlive any one run; one that grows without
bound is a slow memory leak that surfaces as an OOM in hour-long
sweeps, and an ad-hoc eviction policy silently diverges from the
shared one.  Every memo in src/repro/ therefore stores through
netbase/memo.py's bounded_store (wholesale clear at a limit, named
hit/miss/evict counters), which keeps the policy and the accounting
in one audited place.

History: PR 5's decode memos standardized on bounded_store precisely
because per-cache hand-rolled bounds had already drifted (different
limits, no counters, one cache with no bound at all).

The heuristic: a module-level dict whose name ends in _MEMO/_CACHE
(or MEMOS/CACHES) must appear as bounded_store's first argument, and
must not also be stored into directly (d[k] = v / .setdefault /
.update bypass the bound and the miss counter).  A deliberately
unbounded mapping takes a reasoned waiver or a non-cache name."""

    _STORE_METHODS = frozenset({"setdefault", "update"})

    def check(self, module: SourceModule) -> "Iterator[Finding]":
        if (
            module.tree is None
            or not module.in_repro_package
            or module.rel == "netbase/memo.py"
        ):
            return
        caches: "Dict[str, ast.AST]" = {}
        for node in module.tree.body:
            name = _module_dict_name(node)
            if name is not None and _CACHE_NAME_RE.search(name.upper()):
                caches[name] = node
        if not caches:
            return
        bounded: "Set[str]" = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_bounded_store = (
                isinstance(func, ast.Name) and func.id == "bounded_store"
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr == "bounded_store"
            )
            if is_bounded_store and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name):
                    bounded.add(first.id)
        for name, definition in sorted(caches.items()):
            if name not in bounded:
                yield module.finding(
                    self.code,
                    definition,
                    f"module-level dict cache {name} never stores"
                    " through netbase/memo.py's bounded_store; it is"
                    " unbounded and uncounted",
                )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in caches
                        and target.value.id in bounded
                    ):
                        yield module.finding(
                            self.code,
                            node,
                            f"direct store into {target.value.id}"
                            " bypasses bounded_store's limit and miss"
                            " accounting",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._STORE_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in caches
                ):
                    yield module.finding(
                        self.code,
                        node,
                        f"{func.value.id}.{func.attr}(...) bypasses"
                        " bounded_store's limit and miss accounting",
                    )


# ----------------------------------------------------------------------
# GC001 — cyclic-collector policy outside the one pause helper
# ----------------------------------------------------------------------
class Gc001CollectorPolicy(Checker):
    code = "GC001"
    title = "cyclic-collector control call outside the pause helper"
    explain = """\
Every scenario run executes with CPython's cyclic collector paused
(scenarios/engine.py's paused_gc).  That is safe only under one
invariant — the hot layers allocate no reference cycles per event —
and only while the pause restores the caller's state on every exit.
A second gc.disable, a forced gc.collect or a threshold tweak
elsewhere forks that policy: it can leave the collector off after a
run, pay a full collection inside a timed region, or hide a cycle leak
the invariant test would otherwise catch.

History: on the simulated days the collector spent a fifth to a third
of each run re-scanning live RIBs while freeing nothing (README,
Performance); the fix is one reasoned pause, so the policy must never
grow a second home.

Flagged under src/repro/: calls to gc.disable, gc.enable, gc.freeze,
gc.unfreeze, gc.set_threshold and gc.collect (through any import
alias).  The pause helper carries '# repro: allow(GC001) ...'
waivers; route any other need through it."""

    _POLICY_CALLS = frozenset(
        {"disable", "enable", "freeze", "unfreeze", "set_threshold",
         "collect"}
    )

    def check(self, module: SourceModule) -> "Iterator[Finding]":
        if module.tree is None or not module.in_repro_package:
            return
        module_names: "Set[str]" = set()
        function_names: "Dict[str, str]" = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "gc":
                        module_names.add(alias.asname or "gc")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                for alias in node.names:
                    if alias.name in self._POLICY_CALLS:
                        function_names[alias.asname or alias.name] = (
                            alias.name
                        )
        if not module_names and not function_names:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._POLICY_CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id in module_names
            ):
                name = func.attr
            elif isinstance(func, ast.Name) and func.id in function_names:
                name = function_names[func.id]
            if name is not None:
                yield module.finding(
                    self.code,
                    node,
                    f"gc.{name}() forks the collector policy; run the"
                    " work under scenarios.engine.paused_gc instead",
                )


def _module_dict_name(node) -> "Optional[str]":
    """The name of a module-level ``NAME = {}``/``dict()`` binding."""
    if isinstance(node, ast.Assign):
        if len(node.targets) != 1 or not isinstance(
            node.targets[0], ast.Name
        ):
            return None
        target, value = node.targets[0], node.value
    elif isinstance(node, ast.AnnAssign):
        if not isinstance(node.target, ast.Name) or node.value is None:
            return None
        target, value = node.target, node.value
    else:
        return None
    if isinstance(value, ast.Dict):
        return target.id
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "dict"
        and not value.args
    ):
        return target.id
    return None


# ----------------------------------------------------------------------
# DUR001 — durable state written around atomic_write()
# ----------------------------------------------------------------------
class Dur001DurableWrite(Checker):
    code = "DUR001"
    title = "ad-hoc durable write in a durable-state module"
    explain = """\
Durable-state modules (scenarios/runner.py, scenarios/backends.py,
faults/doctor.py) persist caches, manifests and queue records that
other invocations — possibly on other machines — read back and trust.
Every such write must go through repro.durable.atomic_write: it
checksum-frames the payload, fsyncs before os.replace, and names its
temporaries so orphan sweeps and `repro doctor` can reason about them.
An ad-hoc open(..., 'w') or os.replace reimplements the tmp-rename
dance without the fsync, the framing or the recognizable tmp name.

History: before PR 10, runner.py and backends.py carried three
separate unfsynced tmp-rename copies; killed writers left .tmp.<pid>
orphans forever and torn writes were half-parsed as cache entries.

Fix: route the write through durable.atomic_write (or read side
through durable.read_durable).  os.rename is deliberately not flagged
— queue claim/requeue transitions of already-durable files are its
legitimate use.  A genuinely non-durable write (a scratch file, a
probe) takes a '# repro: allow(DUR001) ...' waiver."""

    #: open() modes that create or mutate: any of w/x/a/+.
    _WRITE_MODE_RE = re.compile(r"[wxa+]")

    def check(self, module: SourceModule) -> "Iterator[Finding]":
        if module.tree is None or not module.is_durable_state:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_mode(node)
                if mode is not None and self._WRITE_MODE_RE.search(
                    mode
                ):
                    yield module.finding(
                        self.code,
                        node,
                        f"open(..., {mode!r}) writes durable state"
                        " directly; route it through"
                        " durable.atomic_write",
                    )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "replace"
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            ):
                yield module.finding(
                    self.code,
                    node,
                    "os.replace(...) is atomic_write's job here;"
                    " ad-hoc tmp-rename skips the fsync and the"
                    " checksum frame",
                )

    @staticmethod
    def _open_mode(call: ast.Call) -> "Optional[str]":
        """The constant mode string of an open() call, if present."""
        mode_node = None
        if len(call.args) >= 2:
            mode_node = call.args[1]
        else:
            for keyword in call.keywords:
                if keyword.arg == "mode":
                    mode_node = keyword.value
                    break
        if mode_node is None:
            return None  # default "r": a read
        if isinstance(mode_node, ast.Constant) and isinstance(
            mode_node.value, str
        ):
            return mode_node.value
        # A computed mode cannot be judged syntactically; stay quiet
        # rather than false-positive (the reviewed-waiver philosophy).
        return None


# ----------------------------------------------------------------------
# SYN001 / SUP001 — infrastructure codes
# ----------------------------------------------------------------------
class Syn001SyntaxError(Checker):
    code = "SYN001"
    title = "file does not parse"
    explain = """\
A file that does not parse cannot be checked, imported or tested; in
a lint pass it must be a loud finding, not a silent skip — a skip
reads as 'clean' in CI.  Fix the syntax error; there is no waiver
(the comment scanner still runs, but the contract checkers cannot)."""

    def check(self, module: SourceModule) -> "Iterator[Finding]":
        if module.syntax_error is not None:
            yield module.finding(
                self.code,
                (1, 0),
                f"syntax error: {module.syntax_error}",
            )


class Sup001MalformedSuppression(Checker):
    code = "SUP001"
    title = "malformed or unreasoned suppression comment"
    explain = """\
'# repro: allow(CODE) reason' is a reviewed waiver: the reason is the
review record.  A suppression with no reason, an unknown code, or a
typo'd form would otherwise fail open (no waiver, surprise CI red) or
masquerade as a waiver in review while doing nothing.  Findings for
this code come from the comment scanner itself and cannot be
suppressed — fix the comment."""

    # Findings are produced by the comment scanner in
    # repro.devtools.suppress; the class exists for the catalog,
    # --select and --explain.


#: Registration order is report order for equal locations.
ALL_CHECKERS: "Tuple[Checker, ...]" = (
    Det001SaltedHash(),
    Det002AmbientEntropy(),
    Obs001UngatedInstrumentation(),
    Io001StdoutDiscipline(),
    Cache001SchemaFingerprint(),
    Memo001UnboundedCache(),
    Gc001CollectorPolicy(),
    Dur001DurableWrite(),
    Syn001SyntaxError(),
    Sup001MalformedSuppression(),
)

#: code -> checker instance.
CHECKERS_BY_CODE: "Dict[str, Checker]" = {
    checker.code: checker for checker in ALL_CHECKERS
}

#: Every valid code, sorted (the suppression parser's vocabulary).
KNOWN_CODES: "Tuple[str, ...]" = tuple(sorted(CHECKERS_BY_CODE))
