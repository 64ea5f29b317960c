"""Validated finite-dimensional algebras over F_p given by structure constants.

An algebra is the ambient data for a whole session: every module, diagram
and complex in the library refers back to one Algebra instance, and keeps
its constructions by content (`Algebra.kept`).  Gorenstein recognition, the
stable category and semiorthogonal decompositions assume that projectives
and injectives coincide, so they refuse a non-self-injective algebra
through `require_self_injective`, and so does a session at setup.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .field import MODULUS_BOUND, DerlabError, Mat, check_integer_entries, column_space_basis, hstack, in_column_span, is_prime, rank, remember


class AlgebraError(DerlabError, ValueError):
    pass


# Covers, embeddings into projective diagrams, Gorenstein Kan extensions,
# stable Homs, quotients, submodules, generator legs and projectivity are
# kept per algebra, keyed by content (diagram_key, module_key, span bytes)
# and, for a Kan extension, the functor.  One stability-p2 pass
# over its 344 modules makes 343 embedding and 344 Kan calls on 16 and 17
# distinct inputs, and 1376 stable_hom calls on 53 distinct pairs: all but
# one (total dim 40, called once) are kept, so it builds each pair once, at
# a peak RSS (2-vCPU host, seeds 71-80) of 44.0 MB against 42.0 MB when
# only stable Homs of at most 4096 cells are kept (151 builds).
# recognition-p3 inputs recur across items: in 150 batches (720 embedding
# calls), memos of 8, 32, 64, 128 and 1024 entries build 603, 440, 343, 292
# and 283 embeddings, and its peak RSS (seed 903, 2-vCPU host) is 40.4 MB
# without memos, 41.5 MB with 64 entries and 43.0 MB with 128.  Only inputs
# of total dim at most MEMO_MAX_TOTAL_DIM are looked up and kept, which
# bounds an entry; on the benchmark workloads the largest cover input has
# total dim 12 and the largest embedding input 29, and stability-p2 leaves
# out two Kan inputs (total dim 33 and 44).  The largest stable-Hom entry
# the bound admits is that of two modules of dim 16: at most 256 basis
# matrices of 16 x 16 and a 256 x 256 subspace, 131072 cells or 1 MiB.
# The module constructions are the busiest memos (seed 5; calls, builds):
# one stability-p2 pass asks 3258 and 318 quotients, 1415 and 37
# submodules, 1598 and 765 generator-leg lists and 3001 and 82
# projectivity tests; 150 recognition-p3 batches 9107 and 2910, 3489 and
# 798, 3489 and 169, 5145 and 604.  No input of theirs is above the dim
# bound.  The iso search of k^3 alone tries 85 distinct cones, each once, so
# its quotients are gone from the memo by the next pass.  Keeping these four
# raised peak RSS by 0.8-1.0 MB on each workload (medians of 10 runs,
# 2-vCPU host): stability-p2 44.3 -> 45.2 MB, recognition-p3 42.4 -> 43.4.
MEMO_MAX_ENTRIES = 64
MEMO_MAX_TOTAL_DIM = 32
_MISS = object()


class Algebra:
    """Unital associative F_p-algebra with basis e_0..e_{dim-1}.

    mul[i][j][k] is the e_k-coordinate of e_i * e_j.  The optional radical
    is a list of coordinate vectors spanning a nilpotent two-sided ideal;
    declaring it enables minimal covers in the module layer.
    """

    def __init__(
        self,
        p: int,
        basis_labels: Sequence[str],
        unit: Sequence[int],
        mul,
        radical: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        self.p = int(p)
        self.basis_labels = [str(x) for x in basis_labels]
        self.dim = len(self.basis_labels)
        self.unit = np.mod(np.asarray(list(unit), dtype=np.int64), self.p)
        self.mul = np.mod(np.asarray(mul, dtype=np.int64), self.p)
        if radical is None:
            self.radical = None
        else:
            self.radical = Mat(self.p, np.asarray([list(v) for v in radical], dtype=np.int64).T) if len(radical) else Mat.zeros(self.p, self.dim, 0)
        self._op: Optional["Algebra"] = None
        self._regular_action: Optional[List[Mat]] = None
        self._memos: Dict[str, dict] = {}
        self._self_injective: Optional[bool] = None
        _LIVE.add(self)

    # -- derived data ---------------------------------------------------

    def right_regular_action(self) -> List[Mat]:
        """Matrices of right multiplication by each basis element on Lambda."""
        if self._regular_action is None:
            # (e_i * e_k)_j = mul[i][k][j]; columns indexed by i
            self._regular_action = [Mat(self.p, self.mul[:, k, :].T) for k in range(self.dim)]
        return self._regular_action

    def act(self, coeffs) -> Mat:
        """Matrix of right multiplication by the element with given coordinates."""
        action = self.right_regular_action()
        out = Mat.zeros(self.p, self.dim, self.dim)
        for k, c in enumerate(np.asarray(coeffs, dtype=np.int64) % self.p):
            if c:
                out = out + action[k].scale(int(c))
        return out

    def kept(self, name: str, key, dim: int, build: Callable[[], object]):
        """build(), kept under key in this instance's memo `name` and handed
        out again on a later call with that key.  An input of total dim
        above MEMO_MAX_TOTAL_DIM is built and not kept.  Memos live and die
        with their algebra, so a hit never returns a module over another
        instance."""
        if dim > MEMO_MAX_TOTAL_DIM:
            return build()
        memo = self._memos.setdefault(name, {})
        hit = memo.get(key, _MISS)
        return remember(memo, key, build(), MEMO_MAX_ENTRIES) if hit is _MISS else hit

    def is_local(self) -> bool:
        """Is Lambda local by its declared radical, i.e. has the radical
        codimension 1?  validate_algebra has checked that it is a nilpotent
        two-sided ideal, so it lies in the Jacobson radical; that is a proper
        ideal, so the two agree and Lambda / rad = F_p."""
        return self.radical is not None and self.dim - rank(self.radical) == 1

    def opposite(self) -> "Algebra":
        if self._op is None:
            op = Algebra(
                self.p,
                self.basis_labels,
                self.unit,
                self.mul.transpose(1, 0, 2),
                None,
            )
            op.radical = self.radical
            op._op = self
            self._op = op
        return self._op

    def __repr__(self) -> str:
        return f"Algebra(p={self.p}, dim={self.dim}, basis={self.basis_labels})"


_LIVE: "weakref.WeakSet[Algebra]" = weakref.WeakSet()


def clear_memos() -> None:
    """Empty the memos of every live algebra: what follows is computed from
    cold memos."""
    for alg in list(_LIVE):
        alg._memos.clear()


def validate_algebra(alg: Algebra) -> Algebra:
    """Check the modulus bound, primality, unitality, associativity and the
    declared radical.

    Returns the same object on success; raises AlgebraError naming the
    failing axiom (with a witness triple for associativity).
    """
    if alg.p >= MODULUS_BOUND:
        raise AlgebraError(f"p = {alg.p} is not below MODULUS_BOUND = {MODULUS_BOUND}, which keeps int64 products exact")
    if not is_prime(alg.p):
        raise AlgebraError(f"p = {alg.p} is not prime")
    if alg.mul.shape != (alg.dim, alg.dim, alg.dim):
        raise AlgebraError(f"structure constants have shape {alg.mul.shape}, expected {(alg.dim,)*3}")
    if alg.unit.shape != (alg.dim,):
        raise AlgebraError(f"unit vector has length {alg.unit.shape}, expected {alg.dim}")

    p, mul, u = alg.p, alg.mul, alg.unit
    # unit * e_j = e_j and e_i * unit = e_i
    left = np.einsum("i,ijm->jm", u, mul) % p
    right = np.einsum("j,ijm->im", u, mul) % p
    eye = np.eye(alg.dim, dtype=np.int64)
    if not np.array_equal(left, eye):
        j = int(np.nonzero((left - eye) % p)[0][0])
        raise AlgebraError(f"unit failure: unit * {alg.basis_labels[j]} != {alg.basis_labels[j]}")
    if not np.array_equal(right, eye):
        i = int(np.nonzero((right - eye) % p)[0][0])
        raise AlgebraError(f"unit failure: {alg.basis_labels[i]} * unit != {alg.basis_labels[i]}")

    # associativity on all basis triples
    lhs = np.einsum("ijl,lkm->ijkm", mul, mul) % p  # (e_i e_j) e_k
    rhs = np.einsum("jkl,ilm->ijkm", mul, mul) % p  # e_i (e_j e_k)
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere((lhs - rhs) % p)
        i, j, k, _ = (int(x) for x in bad[0])
        names = alg.basis_labels
        raise AlgebraError(
            f"non-associative: ({names[i]}*{names[j]})*{names[k]} != {names[i]}*({names[j]}*{names[k]})"
        )

    if alg.radical is not None:
        _validate_radical(alg)
    return alg


def _validate_radical(alg: Algebra) -> None:
    rad = alg.radical
    if rad.rows != alg.dim:
        raise AlgebraError("radical vectors have the wrong length")
    span = column_space_basis(rad)
    # two-sided ideal: e_i * r and r * e_i stay in the span
    for k in range(alg.dim):
        right_mult = alg.right_regular_action()[k] @ span  # r * e_k
        # e_k * r: (e_k * e_i)_j = mul[k][i][j], columns indexed by i
        left_mat = Mat(alg.p, alg.mul[k, :, :].T)
        left_mult = left_mat @ span
        if not in_column_span(span, right_mult) or not in_column_span(span, left_mult):
            raise AlgebraError(f"declared radical is not a two-sided ideal (fails at basis element {alg.basis_labels[k]})")
    # nilpotency: powers of the ideal must hit zero
    power = span
    for _ in range(alg.dim + 1):
        if power.cols == 0 or power.is_zero():
            return
        cols = []
        for i in range(power.cols):
            x = power.col(i)
            for j in range(span.cols):
                cols.append(alg.act(span.a[:, j]) @ x)  # x * r_j
        power = column_space_basis(hstack(cols)) if cols else Mat.zeros(alg.p, alg.dim, 0)
    raise AlgebraError("declared radical is not nilpotent")


def is_self_injective(alg: Algebra) -> bool:
    """Is the linear dual of the regular module projective over the
    opposite?  Decided once per instance."""
    if alg._self_injective is None:
        from . import modules

        alg._self_injective = modules.is_projective(modules.dual_module(modules.regular_module(alg)))
    return alg._self_injective


def require_self_injective(alg: Algebra) -> Algebra:
    """alg, or AlgebraError when it is not self-injective: the boundary of
    every construction that needs a Frobenius category of modules."""
    if not is_self_injective(alg):
        raise AlgebraError("algebra is not self-injective")
    return alg


def algebra_from_dict(data: dict) -> Algebra:
    """Load from the JSON document format; integers are reduced mod p, and
    any other entry (1.5, "1", null) is refused."""
    try:
        check_integer_entries([data["p"], data["unit"], data["mul"], data.get("radical") or []])
        alg = Algebra(
            data["p"],
            data["basis"],
            data["unit"],
            data["mul"],
            data.get("radical"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer (p included) too large for int64
        raise AlgebraError(f"malformed algebra document: {exc}") from exc
    return validate_algebra(alg)


def algebra_to_dict(alg: Algebra) -> dict:
    out = {
        "p": alg.p,
        "dim": alg.dim,
        "basis": list(alg.basis_labels),
        "unit": [int(x) for x in alg.unit],
        "mul": alg.mul.tolist(),
    }
    if alg.radical is not None:
        out["radical"] = [ [int(x) for x in alg.radical.a[:, j]] for j in range(alg.radical.cols) ]
    return out


@lru_cache(maxsize=None)
def ground_field(p: int) -> Algebra:
    """F_p itself: basis {1}, radical 0, so it is local and every module is
    free.  Weights of homotopy Kan extensions are diagrams over it.  One
    instance per p, because hom_space compares algebras by identity."""
    return validate_algebra(Algebra(p, ["1"], [1], [[[1]]], radical=[]))


def dual_numbers(p: int = 2) -> Algebra:
    """F_p[x]/(x^2), the default session algebra: basis {1, x}, x*x = 0."""
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1  # 1*1 = 1
    mul[0, 1, 1] = 1  # 1*x = x
    mul[1, 0, 1] = 1  # x*1 = x
    # x*x = 0
    return validate_algebra(Algebra(p, ["1", "x"], [1, 0], mul, radical=[[0, 1]]))


def group_algebra_c2(p: int = 2) -> Algebra:
    """F_p[C_2]: basis {1, g}, g*g = 1.  Over F_2 this is self-injective."""
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    mul[1, 1, 0] = 1
    rad = [[1, 1]] if p == 2 else None  # (1+g) spans the radical only at p=2
    return validate_algebra(Algebra(p, ["1", "g"], [1, 0], mul, radical=rad))


def upper_triangular_2x2(p: int = 2) -> Algebra:
    """2x2 upper-triangular matrices: basis {e11, e22, e12}.  Not self-injective."""
    names = ["e11", "e22", "e12"]
    mul = np.zeros((3, 3, 3), dtype=np.int64)
    # e11*e11 = e11, e22*e22 = e22, e11*e12 = e12, e12*e22 = e12
    mul[0, 0, 0] = 1
    mul[1, 1, 1] = 1
    mul[0, 2, 2] = 1
    mul[2, 1, 2] = 1
    return validate_algebra(Algebra(p, names, [1, 1, 0], mul, radical=[[0, 0, 1]]))
