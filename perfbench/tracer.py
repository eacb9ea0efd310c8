"""Per-layer tracing from outside the package.

A :class:`Tracer` replaces the public functions of each ``finsetrep`` layer
with timing wrappers: every module attribute bound to the original object
(including names re-bound by ``from .x import y``) and the class attributes
``Matrix.__mul__``, ``CatModule.columns`` and ``CatModule.act``.  Spans are
aggregated in memory as they close -- call count, inclusive time and self
time (inclusive time minus the time covered by child spans) per span name --
together with work counts taken from arguments and results.  A call made
while a span of the same name is open (recursion, or ``compose_in``
dispatching to ``compose_delta``) adds its self time but not a call, and
its inclusive time is already inside the outer call's.
:meth:`Tracer.restore` puts every original back and checks that it did.
"""

import functools
import re
import sys
import time
from collections import defaultdict

_SIMPLE_NAME = re.compile(r"(C\d+|D[01]|order-sign)\Z")


def _rule_owner(name):
    """Layer that owns the rule body of a rule-backed module, by its name."""
    if name.startswith("arnold-h"):
        return "arnold"
    if name.startswith("realize("):
        return "doldkan"
    if _SIMPLE_NAME.match(name):
        return "simples"
    return "repmod"


def _backend(module):
    return "rule" if getattr(module, "_elementary", None) is None else "elementary"


def _evaluation_span(kind):
    """Span name for ``CatModule.<kind>``: by backend, and for rule backends
    by the layer whose rule body runs inside the call."""
    def pick(args):
        module = args[0]
        if _backend(module) == "elementary":
            return "repmod.%s.elementary" % kind
        return "repmod.%s.rule.%s" % (kind, _rule_owner(module.name))
    return pick


def _count_morphisms(counts, args, result):
    counts["catcore.enumerate_hom.morphisms"] += len(result)


def _count_mults(counts, args, result):
    left, right = args
    counts["exactla.matmul.mults"] += left.rows * left.cols * getattr(right, "cols", 1)


def _count_entries(counts, args, result):
    counts["exactla.reduce.entries"] += args[0].rows * args[0].cols


def _count_certificate(counts, args, result):
    counts["repmod.check_functoriality.pairs"] += result.pairs_checked
    counts["repmod.check_functoriality.rejections"] += not result.passed


def _count_bytes(counts, args, result):
    counts["repmod.read_module.bytes"] += len(args[0])


def _count_descent(counts, args, result):
    counts["simples.descends_through_phi.pairs"] += result.pairs_checked


# (span name, module name, attribute, counter); a dotted attribute names a
# class attribute, a callable span name picks the span from the arguments
SPECS = (
    ("catcore.compose", "catcore", "compose_n", None),
    ("catcore.compose", "catcore", "compose_set", None),
    ("catcore.compose", "catcore", "compose_delta", None),
    ("catcore.compose", "catcore", "compose_in", None),
    ("catcore.enumerate_hom", "catcore", "enumerate_hom", _count_morphisms),
    ("catcore.lift", "catcore", "lift", None),
    ("catcore.factorize", "catcore", "factorize", None),
    ("exactla.matmul", "exactla", "Matrix.__mul__", _count_mults),
    ("exactla.reduce", "exactla", "reduce", _count_entries),
    ("exactla.kernel", "exactla", "kernel", None),
    ("exactla.solve", "exactla", "solve", None),
    ("exactla.parse_matrix", "exactla", "parse_matrix", None),
    ("exactla.format_matrix", "exactla", "format_matrix", None),
    (_evaluation_span("columns"), "repmod", "CatModule.columns", None),
    (_evaluation_span("act"), "repmod", "CatModule.act", None),
    ("repmod.permutation_action", "repmod", "permutation_action", None),
    ("repmod.check_functoriality", "repmod", "check_functoriality", _count_certificate),
    ("repmod.read_module", "repmod", "read_module", _count_bytes),
    ("repmod.write_module", "repmod", "write_module", None),
    ("doldkan.conormalize", "doldkan", "conormalize", None),
    ("doldkan.realize", "doldkan", "realize", None),
    ("doldkan.read_complex", "doldkan", "read_complex", None),
    ("doldkan.write_complex", "doldkan", "write_complex", None),
    ("simples.make_simple", "simples", "make_simple", None),
    ("simples.descends_through_phi", "simples", "descends_through_phi", _count_descent),
    ("chars.character", "chars", "character", None),
    ("chars.fit_character_polynomial", "chars", "fit_character_polynomial", None),
    ("invariants.invariants_basis", "invariants", "invariants_basis", None),
    ("invariants.barred_map", "invariants", "barred_map", None),
    ("invariants.monotonicity_check", "invariants", "monotonicity_check", None),
    ("invariants.replication_iso_check", "invariants", "replication_iso_check", None),
    ("arnold.arnold_module", "arnold", "arnold_module", None),
    ("cli.run", "cli", "run", None),
)


class Tracer:
    """Wraps the layers of the imported ``finsetrep`` package.

    ``spans[name]`` is ``[calls, inclusive_s, self_s]``; ``counts`` holds the
    work counts.  Use as a context manager: entering installs the wrappers,
    leaving restores the originals.
    """

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self._stack = []        # child time covered so far, one slot per open span
        self._open = defaultdict(int)   # open spans by name
        self._patched = []      # (owner, attribute, original)

    def _wrap(self, span, fn, counter):
        spans, counts, stack, open_ = self.spans, self.counts, self._stack, self._open
        clock = time.perf_counter
        pick = span if callable(span) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = pick(args) if pick else span
            outer = not open_[name]
            open_[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                open_[name] -= 1
                rec = spans[name]
                if outer:
                    rec[0] += 1
                    rec[1] += elapsed
                rec[2] += elapsed - child
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "finsetrep" or name.startswith("finsetrep."))]
        for span, module_name, attribute, counter in SPECS:
            owner = sys.modules["finsetrep." + module_name]
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, original, self._wrap(span, original, counter))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(span, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, attribute, original, wrapper):
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore(self):
        """Put every original back; raises if one did not come back."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        stale = [(owner, attribute) for owner, attribute, original in self._patched
                 if (owner.__dict__[attribute] if isinstance(owner, type)
                     else getattr(owner, attribute)) is not original]
        self._patched.clear()
        if stale:
            raise RuntimeError("wrapped attributes not restored: %r" % stale)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
