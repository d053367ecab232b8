"""Outside-in tracer: spans around calls into orbiflip's public functions.

The program is not edited.  Each traced function is wrapped once and the
wrapper is bound in place of every module attribute that refers to the
original, because each module binds its own name for what it imports (for
example `chain_reduce_homology` is reached through `exact`, `sheaves` and
`resolution`).  `StrandComplex.homology` is patched on the class.  Memo caches
are only read (`cache_info()`, `len(_HYPER_MEMO)`), never cleared.

Spans stay in memory as (name, start, end, parent, op) tuples, one per call
(one per step for the character generator), and are written out once at the
end.  A span's self time is its duration minus the durations of its child
spans; calls are nested and single-threaded, so children never overlap.
No traced function calls itself, so a function's inclusive time is the sum
of its spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

MODULES = ("weights", "charts", "exact", "linalg", "resolution", "sheaves", "functors", "cli")

# (module, function) wrapped with a span.  Beyond the functions the per-layer
# metrics name, the entry points of each op are traced so that every module's
# self time covers the code it runs.
SPANNED = (
    ("weights", "normalize"),
    ("weights", "classify"),
    ("charts", "atlas_report"),
    ("exact", "exact_rank"),
    ("exact", "chain_reduce_homology"),
    ("exact", "kernel_basis"),
    ("linalg", "strand"),
    ("resolution", "minimal_resolution_degrees"),
    ("resolution", "verify_degree_bounds"),
    ("resolution", "module_resolution"),
    ("resolution", "build_resolution"),
    ("sheaves", "cohomology_table"),
    ("sheaves", "wps_cohomology_totals"),
    ("sheaves", "hypercohomology_strand"),
    ("sheaves", "hypercohomology_table_bounded"),
    ("sheaves", "euler_cotangent_complex"),
    ("functors", "apply"),
    ("functors", "as_complex"),
    ("functors", "roundtrip_check"),
    ("functors", "adjunction_check"),
    ("functors", "equivalence_suite"),
    ("functors", "pushforward_oracle_suite"),
    ("functors", "serre_duality_suite"),
    ("functors", "example51_verify"),
    ("cli", "main"),
)
# Generators: one span per step, so the time counted is time inside them.
GENERATORS = (("linalg", "characters_of_degree"),)
# Called once per character from inside a spanned function: counted only,
# their time stays with the caller.
COUNTED = (("sheaves", "character_cohomology"),)

PATTERN_CACHES = ("_side_pattern_dims", "_y_pattern_dims", "_pattern_subsets", "_pattern_homology")


def _strand_terms(args, kwargs, result):
    return args[0].term_count()


def _reduced_cells(args, kwargs, result):
    return len(args[0])


def _strands_checked(args, kwargs, result):
    return result.details["strands_checked"]


# Work counts recorded at the same boundaries as the spans.
WORK = {
    "linalg.strand": ("terms", _strand_terms),
    "exact.chain_reduce_homology": ("cells", _reduced_cells),
    "functors.roundtrip_check": ("strands", _strands_checked),
}
WORK_COUNTS = {f"{name}.{stat}" for name, (stat, _) in WORK.items()} | {
    "linalg.characters_of_degree.chars"
}


class Tracer:
    """Installs wrappers on the orbiflip modules and records spans."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.originals: dict = {}
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr in SPANNED:
            self._rebind(module, attr, self._spanned)
        for module, attr in GENERATORS:
            self._rebind(module, attr, self._generator)
        for module, attr in COUNTED:
            self._rebind(module, attr, self._counted)
        cls = self.modules["linalg"].StrandComplex
        original = cls.homology
        cls.homology = self._spanned("linalg.StrandComplex.homology", original)
        self._restore.append((cls, "homology", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, module: str, attr: str, make) -> None:
        original = getattr(self.modules[module], attr)
        self.originals[f"{module}.{attr}"] = original
        wrapper = make(f"{module}.{attr}", original)
        for owner in (self.package, *self.modules.values()):
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, wrapper)
                    self._restore.append((owner, name, original))

    # -- wrappers -----------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index

    def _exit(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[index] = (name, start, end, parent, self.op)

    def _spanned(self, name: str, original):
        work = WORK.get(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            index = self._enter(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(index, name, start)
            if work is not None:
                self.work[f"{name}.{work[0]}"] += work[1](args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _generator(self, name: str, original):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            inner = original(*args, **kwargs)
            while True:
                index = tracer._enter(name)
                start = time.perf_counter()
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._exit(index, name, start)
                tracer.work[f"{name}.chars"] += 1
                yield value

        wrapper.__wrapped__ = original
        return wrapper

    def _counted(self, name: str, original):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # -- ops and results ----------------------------------------------------

    def begin_op(self, op: int) -> tuple[int, float]:
        self.op = op
        return self._enter("op"), time.perf_counter()

    def end_op(self, token) -> None:
        index, start = token
        self._exit(index, "op", start)
        self.op = -1

    def inclusive(self) -> dict[str, float]:
        """Total seconds inside each traced function."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_time(self) -> dict[str, float]:
        """Seconds each module ran outside the traced calls it made."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name.split(".")[0]] += end - start - inner
        return out

    def cache_reads(self) -> dict[str, float]:
        sheaves = self.modules["sheaves"]
        hits = misses = 0
        for attr in PATTERN_CACHES:
            info = getattr(sheaves, attr).cache_info()
            hits += info.hits
            misses += info.misses
        lookups = hits + misses
        module_resolution = self.originals["resolution.module_resolution"]
        return {
            "sheaves.pattern_cache.lookups": lookups,
            "sheaves.pattern_cache.hit_ratio": hits / lookups if lookups else 0.0,
            "sheaves.hyper_memo.entries": len(sheaves._HYPER_MEMO),
            "resolution.module_resolution.misses": module_resolution.cache_info().misses,
        }

    def layer_metrics(self, names) -> dict[str, float]:
        """Values of the named per-layer metrics, `<function>.<stat>` each.

        A stat is `calls`, `s` (inclusive seconds), `self_s` (of a module), a
        work count recorded at the call, or a cache read.
        """
        inclusive = self.inclusive()
        own = self.self_time()
        reads = self.cache_reads()
        out = {}
        for name in names:
            function, _, stat = name.rpartition(".")
            if name in reads:
                out[name] = reads[name]
            elif stat == "calls":
                out[name] = self.calls[function]
            elif stat == "s":
                out[name] = inclusive[function]
            elif stat == "self_s":
                out[name] = own[function]
            elif name in WORK_COUNTS:
                out[name] = self.work[name]
            else:
                raise KeyError(f"no per-layer metric {name!r}")
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
