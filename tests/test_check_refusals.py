"""Every check that decides its identity on raw arrays
(field.product_defect) refuses what it refused when it multiplied Mats,
with the same exception type and message."""

import random

import numpy as np
import pytest

from derlab.algebra import Algebra, dual_numbers, validate_algebra
from derlab.cats import arrow_category, square_category, terminal_category
from derlab.complexes import ComplexMap, LazyComplex
from derlab.diagrams import (
    Diagram,
    DiagramError,
    DiagramMap,
    cokernel_diagram,
    colimit_of_diagram,
    factor_by_section,
    from_colimit,
    kernel_diagram,
)
from derlab.field import FieldError, Mat
from derlab.gorenstein import VerificationError, _latching_ranks, is_gproj
from derlab.modules import Module, ModuleError, ModuleMap, hom_space, regular_module, submodule
from derlab.samples import random_gproj


@pytest.fixture(scope="module")
def f3():
    return dual_numbers(3)


@pytest.fixture(scope="module")
def seeded_square(f3):
    """A Gorenstein-projective square with every component nonzero."""
    x = random_gproj(square_category(), f3, 2, random.Random(0))
    assert all(x.at(o).dim for o in x.shape.objects)
    return x


def test_a_non_natural_component_is_refused(f3):
    shape = arrow_category()
    reg = regular_module(f3)
    x = Diagram(shape, f3, {"0": reg, "1": reg}, {"e0": Mat.identity(3, 2)})
    phi = DiagramMap(x, x, {"0": Mat.identity(3, 2), "1": Mat.zeros(3, 2, 2)})
    for o in shape.objects:
        phi.at(o).validate()
    with pytest.raises(DiagramError, match=r"^naturality fails at e0$"):
        phi.validate()


def test_a_non_module_map_names_its_basis_element(f3):
    reg = regular_module(f3)
    f = ModuleMap(reg, reg, Mat(3, [[1, 0], [0, 0]]))
    with pytest.raises(ModuleError, match=r"^not a module map \(fails at basis element 1\)$"):
        f.validate()


def test_a_broken_module_law_names_the_first_pair_in_row_major_order():
    # F_3[x]/(x^3); x and x^2 both act by 1 on k, so x x = x^2 holds but
    # x x^2 = 0 fails, first at (x, x2) in row-major order ((x2, x) would
    # come first column by column)
    mul = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3 - i):
            mul[i, j, i + j] = 1
    alg = validate_algebra(Algebra(3, ["1", "x", "x2"], [1, 0, 0], mul, radical=[[0, 1, 0], [0, 0, 1]]))
    one = Mat.identity(3, 1)
    with pytest.raises(ModuleError, match=r"^module law fails on \(x, x2\)$"):
        Module(alg, [one, one, one]).validate()
    with pytest.raises(ModuleError, match=r"^unit does not act as the identity$"):
        Module(alg, [Mat.zeros(3, 1, 1)] * 3).validate()
    Module(alg, [one, Mat.zeros(3, 1, 1), Mat.zeros(3, 1, 1)]).validate()


def _broken_diagonal(x):
    """x with a module map added to its (e0,e0) matrix: every structure map
    is still a module map, the square no longer commutes."""
    h = hom_space(x.at("(0,0)"), x.at("(1,1)"))[0].mat
    mats = dict(x.mats)
    mats["(e0,e0)"] = x.mats["(e0,e0)"] + h
    return Diagram(x.shape, x.alg, x.modules, mats)


def test_a_wrong_diagonal_breaks_functoriality(seeded_square):
    y = _broken_diagonal(seeded_square)
    assert seeded_square.is_functorial() and not y.is_functorial()
    with pytest.raises(DiagramError, match=r"^functoriality fails on \(\(1_1,e0\), \(e0,1_0\)\)$"):
        y.validate()


def test_a_non_functorial_slice_is_refused_by_the_latching_ranks(seeded_square):
    y = _broken_diagonal(seeded_square)
    for j in ("(0,0)", "(0,1)", "(1,0)"):
        _latching_ranks(y, j)  # discrete slices: nothing to contradict
    with pytest.raises(VerificationError, match=r"^latching relations at \(1,1\) do not commute: x is not functorial$"):
        _latching_ranks(y, "(1,1)")
    with pytest.raises(VerificationError, match="do not commute"):
        is_gproj(y)


def _point_complex(alg, terms, diffs):
    """A bounded complex over the point with the given modules and maps."""
    shape = terminal_category()
    point = {n: Diagram(shape, alg, {"*": m}, {}) for n, m in terms.items()}
    maps = {n: DiagramMap(point[n], point[n + 1], {"*": d}) for n, d in diffs.items()}
    return LazyComplex.bounded(shape, alg, point, maps)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_d_squared_nonzero_is_refused(f3, order):
    reg = regular_module(f3)
    one = Mat.identity(3, 2)
    c = _point_complex(f3, {0: reg, 1: reg, 2: reg}, {0: one, 1: one})
    c.diff(order[0])
    with pytest.raises(VerificationError, match=r"^d o d != 0 between degrees 0 and 2$"):
        c.diff(order[1])


def test_a_chain_map_whose_square_fails_is_refused(f3):
    reg = regular_module(f3)
    c = _point_complex(f3, {0: reg, 1: reg}, {0: Mat.identity(3, 2)})
    ids = {n: DiagramMap(c.term(n), c.term(n), {"*": Mat.identity(3, 2)}) for n in (0, 1)}
    ComplexMap(c, c, ids).verify_chain_on(-1, 2)
    broken = ComplexMap(c, c, {0: ids[0], 1: DiagramMap(c.term(1), c.term(1), {"*": Mat.zeros(3, 2, 2)})})
    with pytest.raises(VerificationError, match=r"^chain-map square fails at degree 0$"):
        broken.verify_chain_on(-1, 2)


def test_a_failed_factorization_is_refused():
    # sigma is the identity on its column 0, its section
    sigma, section = Mat(3, [[1, 0]]), np.array([0])
    assert factor_by_section(Mat(3, [[2, 0], [1, 0]]), sigma, section) == Mat(3, [[2], [1]])
    with pytest.raises(DiagramError, match=r"^map does not factor through the surjection$"):
        factor_by_section(Mat(3, [[0, 1]]), sigma, section)


def test_matrices_over_another_modulus_are_refused(f3):
    # checks that read raw arrays rely on every matrix carrying the algebra's p
    with pytest.raises(FieldError, match=r"^mixed moduli 3 and 5$"):
        Module(f3, [Mat.identity(5, 1), Mat.zeros(5, 1, 1)]).validate()
    reg = regular_module(f3)
    with pytest.raises(FieldError, match=r"^mixed moduli 5 and 3$"):
        ModuleMap(reg, reg, Mat.identity(5, 2)).validate()
    shape = arrow_category()
    with pytest.raises(FieldError, match=r"^mixed moduli 5 and 3$"):
        Diagram(shape, f3, {"0": reg, "1": reg}, {"e0": Mat.identity(5, 2)}).validate()
    x = Diagram(shape, f3, {"0": reg, "1": reg}, {"e0": Mat.identity(3, 2)})
    with pytest.raises(FieldError, match=r"^mixed moduli 5 and 3$"):
        DiagramMap(x, x, {"0": Mat.identity(5, 2), "1": Mat.identity(5, 2)}).validate()


def _identity_arrow(f3):
    reg = regular_module(f3)
    return Diagram(arrow_category(), f3, {"0": reg, "1": reg}, {"e0": Mat.identity(3, 2)})


def test_the_kernel_of_a_non_natural_map_is_refused(f3):
    # ker at 0 is everything, at 1 nothing: e0 cannot carry the one into the other
    x = _identity_arrow(f3)
    phi = DiagramMap(x, x, {"0": Mat.zeros(3, 2, 2), "1": Mat.identity(3, 2)})
    with pytest.raises(DiagramError, match=r"^kernel is not preserved by the structure maps$"):
        kernel_diagram(phi)


def test_the_cokernel_of_a_non_natural_map_is_refused(f3):
    # coker at 0 is nothing, at 1 everything: e0 has no map to induce
    x = _identity_arrow(f3)
    phi = DiagramMap(x, x, {"0": Mat.identity(3, 2), "1": Mat.zeros(3, 2, 2)})
    with pytest.raises(DiagramError, match=r"^map does not factor through the surjection$"):
        cokernel_diagram(phi)


def test_legs_that_disagree_along_the_diagram_do_not_leave_the_colimit(f3):
    x = _identity_arrow(f3)
    colim, cocone = colimit_of_diagram(x)
    assert from_colimit(colim, cocone, {"0": Mat.identity(3, 2), "1": Mat.identity(3, 2)}, 2).is_identity()
    with pytest.raises(DiagramError, match=r"^map does not factor through the surjection$"):
        from_colimit(colim, cocone, {"0": Mat.identity(3, 2), "1": Mat.zeros(3, 2, 2)}, 2)


def test_a_span_that_is_not_invariant_is_not_a_submodule(f3):
    # the span of the unit 1 of F_3[x]/(x^2) misses 1 . x = x
    reg = regular_module(f3)
    assert submodule(reg, Mat(3, [[0], [1]]))[0].dim == 1
    with pytest.raises(ModuleError, match=r"^span is not action-invariant$"):
        submodule(reg, Mat(3, [[1], [0]]))
