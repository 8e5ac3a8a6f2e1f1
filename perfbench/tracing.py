"""Per-layer tracing by wrapping the package's module attributes.

The package source is not edited: ``Tracer.install`` replaces each target
function in every ``coxboundary`` module namespace that binds it, so calls
through a module attribute (``racg._append``), through a module global
(``_tits_canonical`` inside core) and through a ``from`` import
(``validate_ray`` inside sysfile) all pass the wrapper.  ``uninstall`` puts
the originals back.

Every wrapped call updates its name's call count and self time, which is
its duration minus the time spent in wrapped callees.  The wrapper's own
cost is measured once by ``calibrate`` and taken out of both the callee's
and the caller's self time.  Span targets called by the job (cli.main) and
the job itself also record a span (job, name, parent, start, end), kept in
memory and written out at the end; hot helpers only aggregate, so memory
stays bounded.
"""

import json
import sys
from collections import Counter
from time import perf_counter

SPAN, HOT = "span", "hot"
SPAN_DEPTH = 2  # the job (cli.main) and the layer entry points it calls

# metric prefix, module, attribute, kind
TARGETS = (
    ("cli.main", "cli", "main", SPAN),
    ("sysfile.parse_system_file", "sysfile", "parse_system_file", SPAN),
    ("boundary.validate_ray", "boundary", "validate_ray", HOT),
    ("core.reduce", "core", "reduce", SPAN),
    ("core.descent_set", "core", "descent_set", SPAN),
    ("core.ball", "core", "ball", SPAN),
    ("core.tits_canonical", "core", "_tits_canonical", HOT),
    ("core.word_distance", "core", "word_distance", HOT),
    ("core.check_word", "core", "check_word", HOT),
    ("racg.append", "racg", "_append", HOT),
    ("racg.descents", "racg", "_descents", HOT),
    ("racg.normal_form", "racg", "normal_form", HOT),
    ("racg.append_letter", "racg", "append_letter", HOT),
    ("racg.push_to_common_singleton", "racg", "push_to_common_singleton", HOT),
    ("racg.proper_union_step", "racg", "proper_union_step", HOT),
    ("racg.build_chain", "racg", "build_chain", HOT),
    ("boundary.translate_ray", "boundary", "translate_ray", HOT),
    ("boundary.proxy_distance", "boundary", "proxy_distance", HOT),
    ("boundary.ball_scan", "boundary", "_ball_scan", SPAN),
    ("boundary.liminf_series", "boundary", "liminf_series", SPAN),
    ("boundary.derive_push_data", "boundary", "derive_push_data", SPAN),
    ("decision.uniform_push_condition", "decision", "uniform_push_condition", SPAN),
    ("decision.analyze", "decision", "analyze", SPAN),
)


COUNTERS = (
    "core.check_word.letters",
    "core.ball.elements",
    "racg.descents.letters_scanned",
    "racg.normal_form.letters_in",
    "boundary.ball_scan.elements",
    "decision.uniform_push_condition.pairs",
    "decision.fallback_searches",
    "decision.fallback_candidates",
)


class _Candidates(list):
    """The fallback's candidate list, counting searches and words tried."""

    def __init__(self, items, counters):
        super().__init__(items)
        self._counters = counters

    def __iter__(self):
        self._counters["decision.fallback_searches"] += 1
        for x in list.__iter__(self):
            self._counters["decision.fallback_candidates"] += 1
            yield x


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0] for name, *_ in TARGETS}  # calls, self_s
        self.counters = Counter({name: 0 for name in COUNTERS})
        self.frames = []  # [name, wrapped-callee seconds, span id, state]
        self.spans = []
        self.job = None
        self.last_system = None
        self.memo_entries_max = 0
        self.inner = self.outer = 0.0
        self._saved = []

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, name, fn, span):
        stat = self.stats.setdefault(name, [0, 0.0])
        frames = self.frames
        spans = self.spans
        clock = perf_counter
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, None, None]
            parent = frames[-1] if frames else None
            frames.append(frame)
            if span and len(frames) <= SPAN_DEPTH:
                frame[2] = len(spans)
                spans.append([tracer.job, name, parent and parent[2], 0.0, 0.0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = clock()
                elapsed = t1 - t0 - tracer.inner
                frames.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed + tracer.outer
                if frame[2] is not None:
                    spans[frame[2]][3:] = [t0, t1]
            if hook is not None:
                result = hook(args, result, parent)
            return result

        return wrapper

    def calibrate(self, calls=20000, repeats=5):
        """Measure the wrapper's cost inside and outside its own clock reads."""

        def noop():
            return None

        wrapped = self._wrapper("calibration", noop, False)
        stat = self.stats["calibration"]
        loop = raw = total = inside = float("inf")
        for _ in range(repeats):
            t = perf_counter()
            for _ in range(calls):
                pass
            loop = min(loop, (perf_counter() - t) / calls)
            t = perf_counter()
            for _ in range(calls):
                noop()
            raw = min(raw, (perf_counter() - t) / calls)
            stat[:] = [0, 0.0]
            self.frames.append(["calibration-parent", 0.0, None, None])
            t = perf_counter()
            for _ in range(calls):
                wrapped()
            total = min(total, (perf_counter() - t) / calls)
            self.frames.pop()
            inside = min(inside, stat[1] / calls)
        del self.stats["calibration"]
        call = max(raw - loop, 0.0)
        self.inner = max(inside - call, 0.0)
        self.outer = max(total - raw, 0.0)

    def install(self, package):
        """Wrap every target in every loaded module of ``package``."""
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for name, module, attr, kind in TARGETS:
            fn = getattr(sys.modules[f"{package}.{module}"], attr)
            wrapper = self._wrapper(name, fn, kind == SPAN)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()

    # -- counters filled from arguments and results -------------------------

    def _after_core_check_word(self, args, result, parent):
        self.counters["core.check_word.letters"] += len(result)
        return result

    def _after_racg_descents(self, args, result, parent):
        self.counters["racg.descents.letters_scanned"] += len(args[1])
        return result

    def _after_racg_normal_form(self, args, result, parent):
        self.counters["racg.normal_form.letters_in"] += len(args[1])
        return result

    def _after_sysfile_parse_system_file(self, args, result, parent):
        self.last_system = result[0]
        return result

    def _after_core_ball(self, args, result, parent):
        self.counters["core.ball.elements"] += len(result)
        caller = parent[0] if parent else None
        if caller == "boundary.ball_scan":
            self.counters["boundary.ball_scan.elements"] += len(result)
        elif caller == "decision.uniform_push_condition":
            if parent[3] is None:  # first ball: the elements to pair up
                parent[3] = "paired"
                self.counters["decision.uniform_push_condition.pairs"] += (
                    len(result) * (len(result) + 1) // 2
                )
            else:  # second ball: candidates of the exhaustive fallback
                return _Candidates(result, self.counters)
        return result

    def end_job(self):
        memo = getattr(self.last_system, "_memo", None) or {}
        self.memo_entries_max = max(self.memo_entries_max, len(memo.get("tits", ())))
        self.last_system = None

    # -- results ------------------------------------------------------------

    def metrics(self):
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        out["boundary.translate_ray.unstable"] = self.counters[
            "boundary.translate_ray.raised.Unstable"
        ]
        out["core.memo_entries_max"] = self.memo_entries_max
        pairs = self.counters["decision.uniform_push_condition.pairs"]
        searches = self.counters["decision.fallback_searches"]
        out["decision.constructive_ratio"] = 1 - searches / pairs if pairs else 0.0
        out["trace.job_s"] = sum(self_s for _, self_s in self.stats.values())
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["job", "name", "parent", "start", "end"],
                 "spans": self.spans},
                fh,
            )
