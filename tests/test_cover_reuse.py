"""Each projective cover and each complete-resolution step is built once.

A diagram is a value, so `projective_cover_diagram` keeps the cover it
builds by content (`diagrams.by_content`) and hands out its syzygy and
middle term again.  `complete_resolution` gets the terms of an earlier
step back from the cover and embedding memos when a cosyzygy (syzygy) has
the content of one it already embedded (covered).  Both are checked
against what the step-by-step construction gives, byte for byte, and by
build counts.
"""

import random
import sys
from pathlib import Path

import pytest

import derlab.diagrams
import derlab.gorenstein
from derlab import cli
from derlab.algebra import clear_memos, dual_numbers, group_algebra_c2
from derlab.cats import arrow_category, cospan_category, square_category
from derlab.complexes import complete_resolution
from derlab.diagrams import ext1, projective_cover_diagram, stalk_diagram
from derlab.gorenstein import approx_gproj, embed_gproj_into_proj, is_gproj
from derlab.modules import regular_module
from derlab.samples import random_diagram, random_gproj

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SHAPES = {"arrow": arrow_category, "cospan": cospan_category, "square": square_category}
ALGEBRAS = {
    "dual2": lambda: dual_numbers(2),
    "dual3": lambda: dual_numbers(3),
    "c2_2": lambda: group_algebra_c2(2),
    "c2_3": lambda: group_algebra_c2(3),
}
WINDOW = range(-4, 5)

# At most this many covers and embeddings are built by one
# run_scenario("scenarios/regression.json"); the step-by-step construction
# built 42 covers and 44 embeddings.
REGRESSION_COVERS = 12
REGRESSION_EMBEDDINGS = 15


def _rebind(monkeypatch, fn, wrapper):
    """Make every derlab module's name for fn call wrapper(fn) instead."""
    wrapped = wrapper(fn)
    for name, mod in list(sys.modules.items()):
        if name.startswith("derlab"):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapped)


def _counting(calls):
    """A wrapper that appends each result of the wrapped function to calls."""

    def wrapper(fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append(out)
            return out

        return counted

    return wrapper


def _diagram_bytes(x):
    return [(a.a.shape, a.a.tobytes()) for o in x.shape.objects for a in x.at(o).action] + [
        (x.mats[f].a.shape, x.mats[f].a.tobytes()) for f in x.shape.nonidentity_morphisms()
    ]


def _comps_bytes(comps):
    return [(m.a.shape, m.a.tobytes()) for _, m in sorted(comps.items())]


def _fresh(step, x):
    """step(x) built from cold memos."""
    clear_memos()
    return step(x)


def _stepwise(x, lo, hi):
    """Terms and differentials on lo..hi built one fresh embedding or cover
    per degree: complete_resolution's construction with no reuse."""
    pos = [_fresh(embed_gproj_into_proj, x)]
    neg = [_fresh(projective_cover_diagram, x)]
    while len(pos) < hi + 2:
        pos.append(_fresh(embed_gproj_into_proj, pos[-1].quot))
    while len(neg) < -lo:
        neg.append(_fresh(projective_cover_diagram, neg[-1].sub))

    def term(n):
        return pos[n].middle if n >= 0 else neg[-n - 1].middle

    def diff(n):
        if n >= 0:
            g, f = pos[n + 1].left, pos[n].right
        elif n == -1:
            g, f = pos[0].left, neg[0].right
        else:
            g, f = neg[-n - 2].left, neg[-n - 1].right
        return {o: g.comps[o] @ f.comps[o] for o in x.shape.objects}

    return [_diagram_bytes(term(n)) for n in range(lo, hi + 1)], [_comps_bytes(diff(n)) for n in range(lo, hi + 1)], len(pos)


@pytest.fixture(scope="module")
def seeded_gprojs():
    out = []
    for alg_name, make_alg in ALGEBRAS.items():
        alg = make_alg()
        for shape_name, make_shape in SHAPES.items():
            shape = make_shape()
            for seed in range(6):
                out.append((f"{alg_name}/{shape_name}/{seed}", random_gproj(shape, alg, 2, random.Random(seed))))
    return out


def test_the_cover_is_built_once_per_diagram(monkeypatch):
    alg = dual_numbers(3)
    reg = regular_module(alg)
    rng = random.Random(4)
    checked = 0
    for make_shape in SHAPES.values():
        shape = make_shape()
        draws = (random_diagram(shape, alg, 2, rng) for _ in range(100))
        for x in [x for x in draws if not is_gproj(x)][:2]:
            kernels = []

            def wrapper(fn):
                def counted(phi):
                    if phi.tgt is x:
                        kernels.append(phi)
                    return fn(phi)

                return counted

            with monkeypatch.context() as m:
                _rebind(m, derlab.diagrams.kernel_diagram, wrapper)
                first = projective_cover_diagram(x)
                again = [projective_cover_diagram(x)] + [ext1(x, stalk_diagram(shape, alg, j, reg)).cover for j in shape.objects]
                for c in again:
                    assert c.middle is first.middle and c.sub is first.sub and c.quot is x
                approx_gproj(x)
            assert len(kernels) == 1
            checked += 1
    assert checked >= 6


def test_complete_resolutions_reuse_steps_and_keep_their_bytes(monkeypatch, seeded_gprojs):
    assert len(seeded_gprojs) == 72
    for label, x in seeded_gprojs:
        terms, diffs, stepwise_embeddings = _stepwise(x, WINDOW[0], WINDOW[-1])
        calls = []
        clear_memos()
        with monkeypatch.context() as m:
            _rebind(m, derlab.gorenstein._embedding, _counting(calls))
            c = complete_resolution(x)
            got_terms = [_diagram_bytes(c.term(n)) for n in WINDOW]
            got_diffs = [_comps_bytes(c.diff(n).comps) for n in WINDOW]
        assert got_terms == terms, label
        assert got_diffs == diffs, label
        assert len(calls) < stepwise_embeddings, label


def test_the_regression_scenario_computes_few_covers_and_embeddings(monkeypatch):
    covers, embeddings = [], []
    _rebind(monkeypatch, derlab.diagrams._cover, _counting(covers))
    _rebind(monkeypatch, derlab.gorenstein._embedding, _counting(embeddings))
    report, code = cli.run_scenario(str(SCENARIOS / "regression.json"))
    assert code == 0
    assert len(covers) <= REGRESSION_COVERS
    assert len(embeddings) <= REGRESSION_EMBEDDINGS
