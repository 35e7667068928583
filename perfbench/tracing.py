"""Per-layer tracing of eplab from outside the library.

Timing wrappers are installed on the public functions of each layer, both on
the attribute in the defining module and wherever another eplab module holds
the same function object: a name imported with ``from .x import f`` or a
closure cell such as the runner captured by a CLI handler.  Every location is
restored by ``uninstall``.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of its direct children.  Spans of the coarse functions are kept in
memory and written out at the end; very frequent leaf calls (weight profiles,
peeling, map preservation, ...) are only aggregated per function, so the
trace stays small and cheap.
"""

import collections
import itertools
import sys
import time

# (layer, qualified name, mode): "span" keeps one span per call, "sum" only
# aggregates, "gen" wraps a generator and times each next().
TRACED = [
    ("cli", "main", "span"),
    ("fields", "Matrix.mul", "sum"),
    ("rings", "ring_make", "span"),
    ("rings", "is_left_pir", "sum"),
    ("rings", "principal_generator", "sum"),
    ("rings", "block_projections", "span"),
    ("modules", "module_make", "span"),
    ("modules", "embedding_search", "span"),
    ("modules", "socle_report", "span"),
    ("modules", "automorphism_group", "sum"),
    ("modules", "is_pseudo_injective", "span"),
    ("modules", "submodule_generated", "sum"),
    ("modules", "iter_linear_maps", "gen"),
    ("codes", "weight_profile", "sum"),
    ("codes", "map_preserves", "sum"),
    ("codes", "extension_search", "sum"),
    ("codes", "code_generate", "span"),
    ("codes", "code_map_make", "span"),
    ("theorems", "midway_peeling", "sum"),
    ("theorems", "verify_orbit_lemma", "span"),
    ("theorems", "verify_necessity", "span"),
    ("theorems", "build_counterexample", "span"),
    ("theorems", "replay_pack", "span"),
    ("theorems", "verify_midway", "span"),
    ("theorems", "verify_sufficiency", "span"),
]


def _count_extension(result, counters):
    counters["nodes"] += result.nodes
    counters["found"] += result.transform is not None


def _count_peeling(report, counters):
    counters["stages"] += report.counts.get("stages", 0)


def _count_build(pack, counters):
    # attempts 0..7 rotate kernels; a pack without one came from the search
    # that runs after all eight.
    counters["attempts"] += pack.transcript.get("attempt", 8) + 1


def _count_midway(report, counters):
    counters["monomorphisms"] += report.counts.get("monomorphisms", 0)
    counters["hamming_preserving"] += report.counts.get("hamming_preserving", 0)


def _count_sufficiency(report, counters):
    counters["isomorphisms"] += report.counts.get("isomorphisms", 0)
    counters["swc_preserving"] += report.counts.get("swc_preserving", 0)


ON_RESULT = {
    "codes.extension_search": _count_extension,
    "theorems.midway_peeling": _count_peeling,
    "theorems.build_counterexample": _count_build,
    "theorems.verify_midway": _count_midway,
    "theorems.verify_sufficiency": _count_sufficiency,
}


class Tracer:
    """Collects per-function call counts, self times, counters and spans.

    clock is injectable so the self-time arithmetic can be tested with a fake
    clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, self seconds]
        self.counters = {}  # name -> Counter
        self.spans = []  # (id, parent id, name, start, end, self seconds)
        self._stack = [[0.0, None]]  # frames: [child seconds, enclosing span id]
        self._ids = itertools.count()
        self._patches = []  # (setter, original)
        self._wrappers = set()

    def wrap(self, name, fn, mode="span", on_result=None):
        """A traced stand-in for fn, recording under name."""
        stat = self.stats.setdefault(name, [0, 0.0])
        counters = self.counters.setdefault(name, collections.Counter())
        stack, clock, spans, ids = self._stack, self.clock, self.spans, self._ids
        keep = mode == "span"

        if mode == "gen":
            def timed(inner):
                try:
                    while True:
                        parent = stack[-1]
                        frame = [0.0, parent[1]]
                        stack.append(frame)
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            elapsed = clock() - start
                            stack.pop()
                            stat[1] += elapsed - frame[0]
                            parent[0] += elapsed
                        counters["maps"] += 1
                        yield item
                finally:
                    inner.close()

            def traced(*args, **kwargs):
                stat[0] += 1
                return timed(fn(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, next(ids) if keep else parent[1]]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    elapsed = end - start
                    own = elapsed - frame[0]
                    stat[0] += 1
                    stat[1] += own
                    parent[0] += elapsed
                    if keep:
                        spans.append((frame[1], parent[1], name, start, end, own))
                if on_result is not None:
                    on_result(result, counters)
                return result

        traced.__wrapped__ = fn
        self._wrappers.add(traced)
        return traced

    # -- installing on the eplab modules ------------------------------------

    def install(self):
        import eplab.cli  # noqa: F401  (loads every layer)

        loaded = _eplab_modules()
        cells = _closure_cells(loaded)  # before any wrapper, whose own cell holds the original
        for layer, qualname, mode in TRACED:
            owner = sys.modules["eplab." + layer]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            name = f"{layer}.{qualname}"
            wrapper = self.wrap(name, original, mode, ON_RESULT.get(name))
            if path:  # a method lives only on its class
                self._set_attr(owner, attr, wrapper)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set_attr(module, key, wrapper)
            for cell in cells:
                if cell.cell_contents is original:
                    self._patches.append((cell, original))
                    cell.cell_contents = wrapper

    def _set_attr(self, owner, attr, value):
        self._patches.append(((owner, attr), getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            where, original = self._patches.pop()
            if isinstance(where, tuple):
                setattr(*where, original)
            else:
                where.cell_contents = original

    def leftover_wrappers(self) -> list:
        """Locations in the eplab modules that still hold one of our wrappers."""
        ours = {id(w) for w in self._wrappers}
        loaded = _eplab_modules()
        found = []
        for module in loaded:
            for key, value in vars(module).items():
                if id(value) in ours:
                    found.append(f"{module.__name__}.{key}")
                if isinstance(value, type):
                    found += [
                        f"{module.__name__}.{key}.{attr}"
                        for attr, member in vars(value).items()
                        if id(member) in ours
                    ]
        found += [
            f"closure cell {cell!r}"
            for cell in _closure_cells(loaded)
            if id(cell.cell_contents) in ours
        ]
        return found

    # -- results ------------------------------------------------------------

    def metric(self, name: str) -> float:
        """One per-layer metric by its benchmark name, e.g.
        'codes.weight_profile.self_s' or 'codes.extension_search.found_ratio'."""
        function, _, what = name.rpartition(".")
        calls, self_s = self.stats.get(function, (0, 0.0))
        counters = self.counters.get(function, collections.Counter())
        if what == "calls":
            return calls
        if what == "self_s":
            return self_s
        if what == "found_ratio":
            return _ratio(counters["found"], calls)
        if what == "preserving_ratio":
            return _ratio(counters["hamming_preserving"], counters["monomorphisms"])
        if what == "swc_ratio":
            return _ratio(counters["swc_preserving"], counters["isomorphisms"])
        return counters[what]

    def dump(self) -> dict:
        return {
            "functions": {
                name: {"calls": calls, "self_s": self_s, **self.counters[name]}
                for name, (calls, self_s) in sorted(self.stats.items())
            },
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e, "self_s": own}
                for i, p, n, s, e, own in self.spans
            ],
        }


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _eplab_modules() -> list:
    return [
        module for key, module in list(sys.modules.items())
        if key == "eplab" or key.startswith("eplab.")
    ]


def _closure_cells(modules) -> list:
    """Closure cells of functions reachable from the modules' globals,
    directly or as values of a module-level dict (such as a handler table)."""
    cells = []
    for module in modules:
        for value in list(vars(module).values()):
            candidates = list(value.values()) if isinstance(value, dict) else [value]
            for fn in candidates:
                for cell in getattr(fn, "__closure__", None) or ():
                    try:
                        cell.cell_contents
                    except ValueError:  # an empty cell
                        continue
                    cells.append(cell)
    return cells
