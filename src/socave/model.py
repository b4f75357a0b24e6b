"""SOCAVE problem object: residual maps, solution tests and solvability certificate.

The equation is A x - |x| - b = 0 with the Jordan-algebra absolute value
over a product of second-order cones. The same root set is reachable
through the complementarity pair Q(x) = Ax + x - b, F(x) = Ax - x - b and
the projection residual Q(x) - P_K[Q(x) - F(x)]; both residual forms are
exposed so they can cross-check each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import (DenseOperator, TridiagToeplitz, as_count, as_positive, as_vector, quoted,
                     silent, vector_norm)
from .reporting import read_json, write_json
from .soc import ConeStructure, abs_kernel, project_kernel

CERT_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class AveProblem:
    """A x - |x| - b = 0; A is a linear operator, or an array that is wrapped
    in a DenseOperator. A problem equals only itself and hashes by identity:
    a field-wise == would compare arrays."""

    A: DenseOperator | TridiagToeplitz
    b: np.ndarray
    cone: ConeStructure
    name: str = ""

    def __post_init__(self):
        A = self.A
        if not isinstance(A, (DenseOperator, TridiagToeplitz)):
            A = DenseOperator(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        b = as_vector(self.b, A.shape[0], "b").copy()  # the caller's b stays writable
        if not isinstance(self.cone, ConeStructure):
            raise ValueError(f"cone must be a ConeStructure, got {quoted(self.cone)}")
        if self.cone.dim != A.shape[0]:
            raise ValueError("cone dimension must match A")
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {quoted(self.name)}")
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]


class Solvability(enum.Enum):
    UNIQUE_GUARANTEED = "UniqueGuaranteed"
    BOUNDARY_REGIME = "BoundaryRegime"
    NOT_CERTIFIED = "NotCertified"


@dataclass(frozen=True)
class SolvabilityCertificate:
    sigma_min: float
    verdict: Solvability


@silent
def residual(p: AveProblem, x) -> np.ndarray:
    """r(x) = Ax - |x| - b."""
    return residual_kernel(p, as_vector(x, p.n))


def residual_kernel(p: AveProblem, x: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """residual without input validation, for the integrator's hot path: x
    must be a float vector of dimension p.n, or a (k, p.n) batch of them, one
    per row; non-finite entries give a non-finite residual instead of an
    error. b, if given, is a (k, p.n) array whose rows replace p.b, one per
    row of x: a batch of problems that share A and the cone."""
    return p.A.matvec(x) - abs_kernel(x, p.cone) - (p.b if b is None else b)


@silent
def qf_maps(p: AveProblem, x) -> tuple[np.ndarray, np.ndarray]:
    """(Q(x), F(x)) = (Ax + x - b, Ax - x - b)."""
    x = as_vector(x, p.n)
    q = p.A.matvec(x) - p.b + x
    # F is built from Q, so Q - F is 2x up to rounding (with A = 0,
    # b = (-1, -1) and x = (1e-17, 0) it is 0), which criterion 5's 1e-10 absorbs
    return q, q - 2.0 * x


@silent
def residual_projection_form(p: AveProblem, x) -> np.ndarray:
    """Q(x) - P_K[Q(x) - F(x)]; provably identical to residual(). An
    overflow in Q gives a non-finite residual, not an error."""
    q, f = qf_maps(p, x)
    return q - project_kernel(q - f, p.cone)


@silent
def is_solution(p: AveProblem, x, tol: float) -> bool:
    as_positive(tol, "tol")
    return vector_norm(residual(p, x)) <= tol


def known_solution(p: AveProblem, x_star) -> np.ndarray:
    """x_star as a validated vector, re-verified as a solution of p to 1e-8
    rather than trusted."""
    x_star = as_vector(x_star, p.n)
    if not is_solution(p, x_star, 1e-8):
        raise ValueError("x_star is not a solution of the problem")
    return x_star


def solvability_certificate(p: AveProblem) -> SolvabilityCertificate:
    """Classify by sigma_min(A): > 1 guarantees a unique solution."""
    sigma = p.A.sigma_min()
    if sigma > 1.0 + CERT_EPS:
        verdict = Solvability.UNIQUE_GUARANTEED
    elif sigma < 1.0 - CERT_EPS:
        verdict = Solvability.NOT_CERTIFIED
    else:
        verdict = Solvability.BOUNDARY_REGIME
    return SolvabilityCertificate(sigma, verdict)


@silent
def contraction_gap(p: AveProblem, x, x_star) -> float:
    """(x - x*)^T A^T r(x) - 0.5*||r(x)||^2; nonnegative when sigma_min(A) >= 1.
    x_star goes through known_solution."""
    x = as_vector(x, p.n)
    x_star = known_solution(p, x_star)
    r = residual(p, x)
    return float((x - x_star) @ p.A.rmatvec(r) - 0.5 * (r @ r))


# -- problem JSON schema ------------------------------------------------------


def problem_to_dict(p: AveProblem, x_star=None) -> dict:
    if isinstance(p.A, TridiagToeplitz):
        spec = {"kind": "tridiag", "sub": p.A.sub, "diag": p.A.diag, "sup": p.A.sup}
    else:
        spec = {"kind": "dense", "entries": p.A.to_dense().tolist()}
    d = {
        "n": p.n,
        "cone_blocks": list(p.cone.blocks),
        "A": spec,
        "b": p.b.tolist(),
    }
    if p.name:
        d["name"] = p.name
    if x_star is not None:
        d["x_star"] = np.asarray(x_star, dtype=float).tolist()
    return d


def problem_from_dict(d: dict) -> tuple[AveProblem, np.ndarray | None]:
    """Build a problem (and optional known solution) from the JSON schema.
    Sizes go through as_count and every other number through as_finite
    (the constructors' as_array), so a string or a bool is not read as a
    number."""
    try:
        n = as_count(d["n"], "n")
        cone = ConeStructure(tuple(d["cone_blocks"]))
        spec = d["A"]
        kind = spec["kind"]
        if kind == "dense":
            A = DenseOperator(spec["entries"])
            if A.shape != (n, n):
                raise ValueError(f"dense A has shape {A.shape}, expected ({n}, {n}) from n")
        elif kind == "tridiag":
            A = TridiagToeplitz(n, spec["sub"], spec["diag"], spec["sup"])
        else:
            raise ValueError(f"unknown matrix kind {quoted(kind)}")
        p = AveProblem(A, d["b"], cone, name=d.get("name", ""))
        x_star = None
        if d.get("x_star") is not None:
            x_star = as_vector(d["x_star"], n, "x_star")
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed problem description: {e}") from e
    return p, x_star


def load_problem(path) -> tuple[AveProblem, np.ndarray | None]:
    """problem_from_dict of the JSON file at path; a ValueError names the file."""
    return read_json(path, problem_from_dict)


def save_problem(path, p: AveProblem, x_star=None) -> None:
    write_json(path, problem_to_dict(p, x_star))
