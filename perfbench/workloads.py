"""The three workloads: set-up (inputs and known answers) and the jobs of
one timed pass.

A job is one question a user asks the workbench.  It returns
``(status, text)``: ``status`` is ``OK``, ``WRONG`` (an answer that differs
from its known value) or ``MISSED`` (a sampled certificate passed a file
known to be corrupt); ``text`` is the job's text output, hashed for the
determinism digest.  Every pass parses and constructs its modules again, and
jobs reach the package only through module attributes looked up at call
time, so a tracer that re-binds them sees every call.
"""

import contextlib
import io
import random
import sys

import oracles

OK, WRONG, MISSED = "ok", "wrong", "missed"

# check_functoriality enumerates every pair when their number is at most
# `trials`; this many always covers the small files
EXHAUSTIVE = 10 ** 9


def _verdict(good):
    return OK if good else WRONG


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# verify: the acceptance battery behind `finsetrep verify`

VERIFY_MODULES = ("C1", "C2", "C3", "D1", "H0", "H1", "H2")
# how the details of a passing criterion start, from the closed forms
CRITERION_DETAILS = {
    6: "C1 = X1; C2 = C(X1,2) + X2; D1 = 1; H1 = C(X1,2) + X2;",
    7: "averaged invariant dims at n = 1..7 -- " + "; ".join(
        "%s: %s" % (name, " ".join(str(oracles.invariant_dim(name, n)) for n in range(1, 8)))
        for name in VERIFY_MODULES),
}


def _criterion(fs, seed, index, results=None):
    """Job running ``acceptance.criterion_<index>``; known answer: PASS."""
    def job():
        r = getattr(fs.acceptance, "criterion_%d" % index)(seed)
        if results is not None:
            results.append(r)
        good = r.passed and r.index == index and r.detail.startswith(CRITERION_DETAILS.get(index, ""))
        return _verdict(good), "%d %s %s" % (r.index, r.passed, r.detail)
    return job


def verify_setup(fs, seed):
    return {"seed": seed}


def verify_jobs(fs, ctx):
    seed = ctx["seed"]
    results = []
    for index in range(1, 11):
        yield "criterion_%d" % index, _criterion(fs, seed, index, results)

    def report():
        text = fs.acceptance.render_report(tuple(results), seed)
        return _verdict(text.endswith("overall: PASS (10/10)\n")), text

    yield "render_report", report


# ---------------------------------------------------------------------------
# invariants: the query path over catmod/1 files

INV_LEVEL = 6
INV_MODULES = ("C1", "C2", "C3", "D1", "H0", "H1", "H2")
# (module, degree, fit levels, test levels, fitted polynomial)
INV_FITS = (
    ("C1", 1, range(1, 5), range(5, 7), "X1"),
    ("C2", 2, range(1, 5), range(5, 7), "C(X1,2) + X2"),
    ("D1", 0, range(1, 5), range(5, 7), "1"),
    ("H0", 0, range(1, 5), range(5, 7), "1"),
    ("H1", 2, range(2, 5), range(5, 7), "C(X1,2) + X2"),
)
# (module, n, m, block collapse induces an isomorphism)
INV_REPLICATION = tuple((name, n, m, True) for name in ("C2", "H1")
                        for n, m in ((2, 2), (2, 3), (3, 2))) + (("C3", 2, 2, False),)
# acceptance criteria asking the same questions: character polynomials, replication
INV_CRITERIA = (6, 8)


def _build(fs, name, max_level):
    if name[0] == "C":
        return fs.simples.make_simple("Ck", max_level, k=int(name[1:]))
    if name[0] == "D":
        return fs.simples.make_simple(name, max_level)
    if name == "order-sign":
        return fs.simples.order_sign_module(max_level)
    return fs.arnold.arnold_module(int(name[1:]), max_level)


def _known_dims(name, max_level):
    if name[0] == "H":
        return oracles.arnold_dims(int(name[1:]), max_level)
    if name[0] == "C":
        return oracles.simple_dims("Ck", max_level, k=int(name[1:]))
    return oracles.simple_dims(name, max_level)


def _known_character(name, n, partition):
    if name in ("D1", "H0"):
        return 1
    if name == "H1":
        return oracles.subset_character(2, partition)
    return oracles.subset_character(int(name[1:]), partition)


def invariants_setup(fs, seed):
    texts = {name: fs.repmod.write_module(_build(fs, name, INV_LEVEL)) for name in INV_MODULES}
    characters = {(name, n): {lam: _known_character(name, n, lam) for lam in _partitions(n)}
                  for name in INV_MODULES if name != "H2" for n in range(1, INV_LEVEL + 1)}
    # no closed form for H2 off the identity class: the rule module decides,
    # the identity class is checked against the Poincare product
    rule = fs.arnold.arnold_module(2, INV_LEVEL)
    for n in range(1, INV_LEVEL + 1):
        table = dict(fs.chars.character(rule, n))
        identity = (1,) * n
        if table[identity] != oracles.arnold_dims(2, n)[n]:
            raise RuntimeError("H2 rule character disagrees with the Poincare product at n=%d" % n)
        characters["H2", n] = table
    order = list(INV_MODULES)
    random.Random("invariants:%d" % seed).shuffle(order)
    return {"seed": seed, "texts": texts, "characters": characters, "order": order}


def invariants_jobs(fs, ctx):
    for name in ctx["order"]:
        module = {}

        def read(name=name, module=module):
            V = module["V"] = fs.repmod.read_module(ctx["texts"][name])
            return _verdict(V.dims == _known_dims(name, INV_LEVEL)), repr(V.dims)

        yield "read %s" % name, read
        for n in range(1, INV_LEVEL + 1):
            def basis(name=name, n=n, module=module):
                b = fs.invariants.invariants_basis(module["V"], n)
                return (_verdict(b.dim == oracles.invariant_dim(name, n)),
                        fs.exactla.format_matrix(b.basis))

            yield "invariants_basis %s %d" % (name, n), basis
        for n in range(1, INV_LEVEL + 1):
            def character(name=name, n=n, module=module):
                table = fs.chars.character(module["V"], n)
                return (_verdict(dict(table) == ctx["characters"][name, n]),
                        repr(sorted(table.items())))

            yield "character %s %d" % (name, n), character
        for fit_name, degree, fit, test, want in INV_FITS:
            if fit_name == name:
                def fitted(degree=degree, fit=fit, test=test, want=want, module=module):
                    outcome = fs.chars.fit_character_polynomial(module["V"], degree, fit, test)
                    return _verdict(outcome.ok and str(outcome.polynomial) == want), str(outcome)

                yield "fit_character_polynomial %s" % name, fitted
        for rep_name, n, m, iso in INV_REPLICATION:
            if rep_name == name:
                def replicate(n=n, m=m, iso=iso, module=module):
                    report = fs.invariants.replication_iso_check(module["V"], n, m)
                    return (_verdict(report.passed == iso),
                            "%s\n%s" % (report, fs.exactla.format_matrix(report.matrix)))

                yield "replication_iso_check %s %d %d" % (name, n, m), replicate
    for index in INV_CRITERIA:
        yield "criterion_%d" % index, _criterion(fs, ctx["seed"], index)


# ---------------------------------------------------------------------------
# catmod: certification, round trips and pipelines over a corpus of files

CAT_LEVEL = 5
CAT_N = ("C1", "C2", "C3", "D0", "D1", "order-sign")
CAT_F = ("H0", "H1", "H2")
# shapes of the seeded cochain complexes realized over Delta at CAT_LEVEL
CAT_COMPLEXES = ((1, 2), (2, 1), (1, 1, 1))
# small files, certified exhaustively: (module, level)
CAT_SMALL = (("C2", 3), ("H1", 4))
DESCENT_BOUND = 4
ACT_BATCH = 12
# acceptance criteria on the same ground: normalization and file round trips
CAT_CRITERIA = (3, 10)


def _random_complex(fs, dims, rng):
    Matrix = fs.exactla.Matrix

    def entries(rows, cols):
        return [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]

    diffs = []
    for p in range(len(dims) - 1):
        rows, cols = dims[p + 1], dims[p]
        if not diffs:
            diffs.append(Matrix(rows, cols, entries(rows, cols)))
            continue
        # rows of the next differential lie in the left kernel of the last one
        left = fs.exactla.kernel(diffs[-1].transpose())
        diffs.append(Matrix(rows, left.cols, entries(rows, left.cols)) * left.transpose())
    return fs.doldkan.CochainComplex(len(dims) - 1, dims, diffs)


def _random_morphisms(fs, module, rng):
    """``ACT_BATCH`` seeded morphisms over a fixed spread of (source, target)
    levels, so the seed changes the morphisms but not the sizes."""
    lo = 1 if module.category is fs.catcore.DELTA else 0
    levels = range(lo, module.max_level + 1)
    ends = [(m, n) for m in levels for n in levels if n > 0 or m == 0]
    step = len(ends) / ACT_BATCH
    return [fs.catcore.random_mor(module.category, *ends[int(i * step)], rng)
            for i in range(ACT_BATCH)]


def catmod_setup(fs, seed):
    entries = []

    def add(name, module, dims, small=False, constant=False):
        text = fs.repmod.write_module(module)
        if constant and not oracles.all_blocks_unit(text):
            raise RuntimeError("%s file is not the constant functor" % name)
        rng = random.Random("catmod:%d:act:%s" % (seed, name))
        acts = _random_morphisms(fs, module, rng)
        expected = [fs.exactla.Matrix.identity(1) if constant else module.act(f) for f in acts]
        entries.append({"name": name, "text": text, "dims": dims, "small": small,
                        "category": module.category, "acts": acts, "expected": expected})

    for name in CAT_N + CAT_F:
        add("%s@%d" % (name, CAT_LEVEL), _build(fs, name, CAT_LEVEL),
            _known_dims(name, CAT_LEVEL), constant=name == "order-sign")
    for name, level in CAT_SMALL:
        add("%s@%d" % (name, level), _build(fs, name, level), _known_dims(name, level), small=True)
    complexes = []
    for index, shape in enumerate(CAT_COMPLEXES):
        rng = random.Random("catmod:%d:complex:%d" % (seed, index))
        complex_ = _random_complex(fs, shape, rng)
        complexes.append(fs.doldkan.write_complex(complex_))
        add("realize%d@%d" % (index, CAT_LEVEL), fs.doldkan.realize(complex_, CAT_LEVEL),
            oracles.realized_dims(shape, CAT_LEVEL), small=True)
    corrupted = []
    for entry in entries:
        got = oracles.corrupt(entry["text"], random.Random("catmod:%d:corrupt:%s" % (seed, entry["name"])))
        if got is not None:
            text, key = got
            corrupted.append({"name": "%s!%s.%d.%d" % ((entry["name"],) + key), "text": text,
                              "dims": entry["dims"], "small": entry["small"]})
    return {"seed": seed, "entries": entries, "corrupted": corrupted, "complexes": complexes}


def _to_delta(fs, V):
    if V.category is fs.catcore.DELTA:
        return V
    if V.category is fs.catcore.F:
        V = fs.repmod.restrict(V, "phi")
    return fs.repmod.restrict(V, "psi")


def _certify(fs, V, small):
    if small:
        return fs.repmod.check_functoriality(V, trials=EXHAUSTIVE)
    return fs.repmod.check_functoriality(V)


def _pipe(fs, text, stages):
    """Run CLI stages in process, each reading the previous one's stdout;
    ``text`` is the first stage's stdin."""
    for argv in stages:
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fs.cli.run(list(argv))
        finally:
            sys.stdin = stdin
        if code != 0:
            return code, err.getvalue()
        text = out.getvalue()
    return 0, text


def catmod_jobs(fs, ctx):
    catcore = fs.catcore
    for entry in ctx["entries"]:
        name = entry["name"]
        module = {}

        def read(entry=entry, module=module):
            V = module["V"] = fs.repmod.read_module(entry["text"])
            return _verdict(V.dims == entry["dims"]), repr(V.dims)

        def certify(entry=entry, module=module):
            report = _certify(fs, module["V"], entry["small"])
            return _verdict(report.passed), str(report)

        def rewrite(entry=entry, module=module):
            text = fs.repmod.write_module(module["V"])
            return _verdict(text == entry["text"]), text

        def normalize(entry=entry, module=module):
            complex_ = fs.doldkan.conormalize(_to_delta(fs, module["V"]))
            text = fs.doldkan.write_complex(complex_)
            again = fs.doldkan.write_complex(fs.doldkan.read_complex(text))
            want = oracles.normalized_dims((0,) + tuple(entry["dims"][1:]))
            return _verdict(complex_.dims == want and again == text), text

        def descent(module=module):
            V = module["V"]
            if V.category is catcore.F:
                V = fs.repmod.restrict(V, "phi")
            report = fs.simples.descends_through_phi(V, DESCENT_BOUND)
            return _verdict(report.passed), str(report)

        yield "read_module %s" % name, read
        yield "check_functoriality %s" % name, certify
        yield "write_module %s" % name, rewrite
        yield "conormalize %s" % name, normalize
        if entry["category"] is not catcore.DELTA:
            yield "descends_through_phi %s" % name, descent
        def act(entry=entry, module=module):
            V = module["V"]
            mats = [V.act(f) for f in entry["acts"]]
            good = mats == entry["expected"]
            return _verdict(good), "\n\n".join(fs.exactla.format_matrix(mat) for mat in mats)

        yield "act %s" % name, act

    for entry in ctx["corrupted"]:
        module = {}

        def read_bad(entry=entry, module=module):
            V = module["V"] = fs.repmod.read_module(entry["text"])
            return _verdict(V.dims == entry["dims"]), repr(V.dims)

        def reject(entry=entry, module=module):
            report = _certify(fs, module["V"], entry["small"])
            if report.passed:
                return (WRONG if entry["small"] else MISSED), str(report)
            return OK, str(report)

        yield "read_module %s" % entry["name"], read_bad
        yield "check_functoriality %s" % entry["name"], reject

    c2_normalized = "dims %s" % " ".join(
        str(d) for d in oracles.normalized_dims((0,) + oracles.simple_dims("Ck", CAT_LEVEL, k=2)[1:]))
    # (label, stdin of the first stage, stages, check of the last stdout)
    pipelines = (
        ("simple C1 | fit charpoly", "",
         (("simple", "Ck", "--k", "1", "--max", "5"),
          ("fit", "charpoly", "-", "--d", "1", "--fit", "1..3", "--test", "4..5")),
         lambda out: out == "X1\n"),
        ("simple C2 | fit charpoly", "",
         (("simple", "Ck", "--k", "2", "--max", "5"),
          ("fit", "charpoly", "-", "--d", "2", "--fit", "1..3", "--test", "4..5")),
         lambda out: out == "C(X1,2) + X2\n"),
        ("simple C2 | doldkan conormalize", "",
         (("simple", "Ck", "--k", "2", "--max", "5"),
          ("doldkan", "conormalize", "-")),
         lambda out: out.split("\n")[2] == c2_normalized),
        ("doldkan realize | doldkan dimpoly", ctx["complexes"][0],
         (("doldkan", "realize", "-", "--max", "5"),
          ("doldkan", "dimpoly", "-")),
         lambda out: out == oracles.dim_polynomial_text(CAT_COMPLEXES[0]) + "\n"),
        ("arnold module | invariants", "",
         (("arnold", "module", "--i", "1", "--max", "5"),
          ("invariants", "-", "--range", "1..5")),
         lambda out: out == "invariant dims [0 1 1 1 1]: nondecreasing\n"),
    )
    for label, stdin, stages, check in pipelines:
        def pipeline(stdin=stdin, stages=stages, check=check):
            code, out = _pipe(fs, stdin, stages)
            return _verdict(code == 0 and check(out)), out

        yield "cli %s" % label, pipeline
    for index in CAT_CRITERIA:
        yield "criterion_%d" % index, _criterion(fs, ctx["seed"], index)


WORKLOADS = {
    "verify": (verify_setup, verify_jobs),
    "invariants": (invariants_setup, invariants_jobs),
    "catmod": (catmod_setup, catmod_jobs),
}
