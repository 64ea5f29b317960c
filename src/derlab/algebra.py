"""Validated finite-dimensional algebras over F_p given by structure constants.

An algebra is the ambient data for a whole session: every module, diagram
and complex in the library refers back to one Algebra instance, and keeps
its constructions by content (`Algebra.kept`).  Gorenstein recognition, the
stable category and semiorthogonal decompositions assume that projectives
and injectives coincide, so they refuse a non-self-injective algebra
through `require_self_injective`, and so does a session at setup.
"""

from __future__ import annotations

import threading
import weakref
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .field import MODULUS_BOUND, DerlabError, Mat, check_integer_entries, check_keys, column_space_basis, hstack, in_column_span, is_prime, rank, remember


class AlgebraError(DerlabError, ValueError):
    pass


# Covers, embeddings into projective diagrams, Gorenstein Kan extensions,
# the deepest walk-back step of approx_gproj, stable Homs, stable-iso
# verdicts, quotients, submodules, generator legs, projectivity and
# injective envelopes are kept per algebra, keyed by content (diagram_key,
# module_key, span and map bytes) and, for a Kan extension, the functor; an
# iso verdict also by budget and seed; free diagrams by name
# (diagrams.free_name).  The README gives each memo's hit rate and what
# removing it costs; a memo that costs nothing to remove is not kept.
# Inputs recur because canonical bases collapse them: one stability-p2 pass
# over its 344 modules asks 17 Kan extensions, 16 walk-back steps and 17
# iso searches for 344, 343 and 344 calls.  recognition-p3 inputs recur
# less: in 150 batches, memos of 8, 32, 64, 128 and 1024 entries build 603,
# 440, 343, 292 and 283 of 720 embeddings, at a peak RSS (seed 903, 2-vCPU
# host) of 40.4 MB without memos, 41.5 MB with 64 entries and 43.0 MB with
# 128.  Only inputs of total dim at most MEMO_MAX_TOTAL_DIM are looked up
# and kept, which bounds an entry: the largest stable-Hom entry it admits,
# two modules of dim 16, is 256 basis matrices of 16 x 16 and a 256 x 256
# subspace, 1 MiB.  On the benchmark workloads the largest cover input has
# total dim 12 and the largest embedding input 29, and stability-p2 leaves
# out two Kan inputs and two walk-back steps.  Measured peak RSS (2-vCPU
# host, medians of 10 runs): keeping every stable Hom, 44.0 against 42.0 MB
# when only those of at most 4096 cells were kept; keeping the four module
# constructions, +0.8-1.0 MB on each workload; keeping walk-back steps and
# iso verdicts, +0.2 MB on stability-p2 and +1.8 MB on recognition-p3.
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

    def kept(self, name: str, key, dim: int, build: Callable[[], object]):
        """build(), kept under key in this instance's memo `name` and handed
        out again on a later call with that key.  An input of total dim
        above MEMO_MAX_TOTAL_DIM is built and not kept.  Memos belong to
        their algebra, so a hit never returns a module over another
        instance, and last as long as it does: for an algebra a scenario
        loads, as long as cli keeps it, across runs.  Every call is counted
        (memo_counts)."""
        if dim > MEMO_MAX_TOTAL_DIM:
            _count(name, 3)
            return build()
        memo = self._memos.setdefault(name, {})
        hit = memo.get(key, _MISS)
        _count(name, 0, 2 if hit is _MISS else 1)
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
# Per memo name, over every algebra: [lookups, hits, builds, not kept].
# Module-level, because an algebra can die before its counts are read (a
# caller's own instance, or one cli's session loaders evicted).
_COUNTS: Dict[str, List[int]] = {}
_COUNTS_LOCK = threading.Lock()


def _count(name: str, *fields: int) -> None:
    with _COUNTS_LOCK:
        counts = _COUNTS.setdefault(name, [0, 0, 0, 0])
        for i in fields:
            counts[i] += 1


def clear_memos() -> None:
    """Empty the memos of every live algebra and reset memo_counts(): what
    follows is computed from cold memos."""
    for alg in list(_LIVE):
        alg._memos.clear()
    with _COUNTS_LOCK:
        _COUNTS.clear()


def memo_counts() -> Dict[str, Dict[str, int]]:
    """Per memo name, summed over every algebra since the last clear_memos():
    inputs looked up, hits, builds after a miss, and inputs built but not
    kept because they are above MEMO_MAX_TOTAL_DIM.  Tooling only: no
    report reads them."""
    fields = ("lookups", "hits", "builds", "not_kept")
    with _COUNTS_LOCK:
        return {name: dict(zip(fields, counts)) for name, counts in sorted(_COUNTS.items())}


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
    p, rad = alg.p, alg.radical
    if rad.rows != alg.dim:
        raise AlgebraError("radical vectors have the wrong length")
    span = column_space_basis(rad)
    # two-sided ideal: r * e_k and e_k * r stay in the span, i.e. the span is
    # invariant under the right regular actions of Lambda and its opposite
    sides = alg.right_regular_action() + alg.opposite().right_regular_action()
    if not in_column_span(span, hstack([a @ span for a in sides])):
        raise AlgebraError("declared radical is not a two-sided ideal")
    # nilpotency: x -> x * r for r in the span, stacked; the powers of the
    # ideal must reach zero
    acts = np.tensordot(span.a.T, np.array([a.a for a in alg.right_regular_action()]), 1) % p
    power = span
    for _ in range(alg.dim + 1):
        if power.cols == 0:
            return
        power = column_space_basis(Mat._of(p, (acts @ power.a % p).transpose(1, 0, 2).reshape(alg.dim, -1)))
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
        check_keys(data, ("p", "basis", "unit", "mul", "radical", "dim"))
        check_integer_entries([data["p"], data["unit"], data["mul"], data.get("radical") or []])
        if not isinstance(data["basis"], list):
            raise TypeError("basis must be a list of labels")
        if "dim" in data and (isinstance(data["dim"], bool) or data["dim"] != len(data["basis"])):
            raise ValueError(f"dim {data['dim']!r} is not the number of basis labels, {len(data['basis'])}")
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
