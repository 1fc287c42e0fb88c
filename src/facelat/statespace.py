"""Numeric (floating-point) checks on matrix state spaces.

Realizes the self-adjoint matrix examples: faces of the state space through
support and maximal projections, sharp-normal/sharp-exposed verification by
random sampling, and the cone-of-revolution projection/intersection
experiment.  Everything here is tolerance-driven and clearly labelled
"numeric"; the exact modules never depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import atan, cos, degrees, pi, radians, sin, sqrt

import numpy as np

from .errors import BadAngle, EigenFailure

TOL_SYM = 1e-10
TOL_RANK = 1e-8
TOL_GAP = 1e-8
TOL_FLAT = 1e-6

Algebra = tuple[int, ...]  # direct-sum block sizes


def algebra_dim(alg: Algebra) -> int:
    return sum(alg)


def check_hermitian(m: np.ndarray, tol: float = TOL_SYM) -> np.ndarray:
    if np.linalg.norm(m - m.conj().T) > tol:
        raise EigenFailure("matrix is not self-adjoint within tolerance")
    return 0.5 * (m + m.conj().T)


def support_projection(rho: np.ndarray, tol_rank: float = TOL_RANK) -> np.ndarray:
    """Projection onto the span of eigenvectors with eigenvalue above tol_rank."""
    w, v = np.linalg.eigh(check_hermitian(rho))
    cols = v[:, w > tol_rank]
    return cols @ cols.conj().T


def maximal_projection(u: np.ndarray, tol_gap: float = TOL_GAP) -> np.ndarray:
    """Spectral projection of u onto the top eigenvalue's eigenspace.

    Eigenvalues within tol_gap of the maximum are merged into one eigenspace
    so that the result is a genuine projection under floating-point noise.
    """
    w, v = np.linalg.eigh(check_hermitian(u))
    cols = v[:, w >= w[-1] - tol_gap]
    return cols @ cols.conj().T


def random_hermitian(alg: Algebra, rng: np.random.Generator) -> np.ndarray:
    n = algebra_dim(alg)
    m = np.zeros((n, n), dtype=complex)
    k = 0
    for b in alg:
        g = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        m[k:k + b, k:k + b] = 0.5 * (g + g.conj().T)
        k += b
    return m


def random_state(alg: Algebra, rng: np.random.Generator,
                 project_to: np.ndarray | None = None) -> np.ndarray:
    n = algebra_dim(alg)
    m = np.zeros((n, n), dtype=complex)
    k = 0
    for b in alg:
        g = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        m[k:k + b, k:k + b] = g @ g.conj().T
        k += b
    if project_to is not None:
        m = project_to @ m @ project_to
    tr = np.trace(m).real
    if tr <= 0:
        raise EigenFailure("degenerate random state")
    return m / tr


@dataclass
class SharpReport:
    samples: int
    seed: int
    tolerance: float
    violations: int = 0
    max_violation: float = 0.0
    details: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def record(self, value: float, what: str):
        self.max_violation = max(self.max_violation, value)
        if value > self.tolerance:
            self.violations += 1
            if len(self.details) < 16:
                self.details.append(f"{what}: deviation {value:.3e}")


def verify_sharp_properties(alg: Algebra, samples: int = 1000,
                            tol: float = 1e-9, seed: int = 0) -> SharpReport:
    """Sample the sharp-normal / sharp-exposed equalities on a state space.

    For random directions u: a state with support equal to the maximal
    projection of u lies in the relative interior of the exposed face of u,
    and u lies in the relative interior of its normal cone (support equal to
    maximal projection again).  For random states rho: the direction
    u = supp(rho) lies in ri of the normal cone at rho and must expose a face
    with rho in its relative interior.  Also checks the support identity
    tr(rho u) = lambda_max(u) on the constructed face points.
    """
    rng = np.random.default_rng(seed)
    rep = SharpReport(samples, seed, tol)
    n = algebra_dim(alg)
    if n <= 1:
        return rep
    for _ in range(samples):
        u = random_hermitian(alg, rng)
        p = maximal_projection(u)
        rho = random_state(alg, rng, project_to=p)
        s = support_projection(rho)
        rep.record(float(np.linalg.norm(s - p)), "sharp normal: supp(face state) = p+(u)")
        h = float(np.linalg.eigvalsh(u)[-1])
        rep.record(abs(float(np.trace(rho @ u).real) - h),
                   "support identity tr(rho u) = h(u)")

        q = maximal_projection(random_hermitian(alg, rng))
        sigma = random_state(alg, rng, project_to=q if rng.random() < 0.5 else None)
        s2 = support_projection(sigma)
        u2 = s2  # lies in ri of the normal cone at sigma
        p2 = maximal_projection(u2)
        rep.record(float(np.linalg.norm(p2 - s2)),
                   "sharp exposed: p+(supp(rho)) = supp(rho)")
    return rep


# ---------------------------------------------------------------------------
# cone-of-revolution experiment
# ---------------------------------------------------------------------------

# Orthonormal frame (trace inner product) for the section of S(Mat(C,2) (+) C)
# with no sigma_3 component: e1 = sigma1 (+) 0 / sqrt2, e2 = sigma2 (+) 0 / sqrt2,
# e3 = (-I2 (+) 2)/sqrt6, based at the barycenter I3/3.  In these coordinates
# the body is the cone of revolution with apex (0,0,2/sqrt6) and base disk of
# radius 1/sqrt2 at height -1/sqrt6.
APEX_Z = 2.0 / sqrt(6.0)
BASE_Z = -1.0 / sqrt(6.0)
BASE_R = 1.0 / sqrt(2.0)
HALF_APERTURE_DEG = degrees(atan(BASE_R / (APEX_Z - BASE_Z)))


def frame_vectors() -> list[np.ndarray]:
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    e1 = np.zeros((3, 3), dtype=complex)
    e1[:2, :2] = s1 / sqrt(2.0)
    e2 = np.zeros((3, 3), dtype=complex)
    e2[:2, :2] = s2 / sqrt(2.0)
    e3 = np.diag([-1.0, -1.0, 2.0]).astype(complex) / sqrt(6.0)
    return [e1, e2, e3]


def cone_support(u: np.ndarray) -> float:
    """Closed-form support of the revolution cone for a 3-vector direction."""
    ux, uy, uz = u
    base = BASE_Z * uz + BASE_R * sqrt(ux * ux + uy * uy)
    apex = APEX_Z * uz
    return max(base, apex)


def state_space_support(u: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(u)[-1])


def verify_cone_frame(samples: int = 200, seed: int = 7) -> float:
    """Max deviation between the matrix state-space support and the 3D cone model.

    Confirms that the projection of the state space to the frame and its
    intersection with the frame's affine span coincide with the revolution
    cone, by comparing support functions on sampled frame directions.
    """
    rng = np.random.default_rng(seed)
    es = frame_vectors()
    eye = np.eye(3, dtype=complex) / 3.0
    worst = 0.0
    for _ in range(samples):
        c = rng.standard_normal(3)
        u = sum(ci * ei for ci, ei in zip(c, es))
        h_matrix = state_space_support(u) - float(np.trace(eye @ u).real)
        h_model = cone_support(c)
        worst = max(worst, abs(h_matrix - h_model))
    return worst


@dataclass
class ConeExperimentReport:
    phi_deg: float
    transition_deg: float
    conic_type: str
    projection_flat_spots: int
    projection_nonexposed_points: int
    projection_sharp_violations: int
    intersection_flat_spots: int
    intersection_all_exposed: bool
    frame_support_deviation: float
    resolution: int

    @property
    def passed(self) -> bool:
        return (self.projection_sharp_violations == 0
                and self.intersection_all_exposed)

    def as_dict(self) -> dict:
        return {
            "phi_deg": self.phi_deg,
            "transition_deg": self.transition_deg,
            "conic_type": self.conic_type,
            "projection_flat_spots": self.projection_flat_spots,
            "projection_nonexposed_points": self.projection_nonexposed_points,
            "projection_sharp_violations": self.projection_sharp_violations,
            "intersection_flat_spots": self.intersection_flat_spots,
            "intersection_all_exposed": self.intersection_all_exposed,
            "frame_support_deviation": self.frame_support_deviation,
            "resolution": self.resolution,
            "mode": "numeric",
        }


def _plane_basis(phi_deg: float):
    """Plane through the barycenter making angle phi with the symmetry axis."""
    phi = radians(phi_deg)
    d1 = np.array([-sin(phi), 0.0, cos(phi)])
    d2 = np.array([0.0, 1.0, 0.0])
    return d1, d2


def cone_experiment(phi_deg: float, resolution: int = 720,
                    tol_flat: float = TOL_FLAT) -> ConeExperimentReport:
    """Sectioning and projecting the cone of revolution at tilt angle phi.

    The section plane passes through the barycenter and makes the angle phi
    with the symmetry axis; phi below the half-aperture cuts a hyperbola arc,
    above it an ellipse.  The projection is the hull of the projected apex
    and the projected base ellipse; when the apex falls outside the ellipse
    its two tangent segments create two non-exposed tangency points.
    All verdicts are sampled numeric observations, not exact statements.
    """
    if not 0.0 < phi_deg < 90.0:
        raise BadAngle("the tilt angle must be strictly between 0 and 90 degrees")
    d1, d2 = _plane_basis(phi_deg)
    phi = radians(phi_deg)
    conic = ("hyperbolic" if phi_deg < HALF_APERTURE_DEG - 1e-9 else
             "parabolic" if abs(phi_deg - HALF_APERTURE_DEG) <= 1e-9 else
             "elliptic")

    # ---- projection: hull of projected apex and projected base ellipse ----
    apex2 = np.array([APEX_Z * cos(phi), 0.0])
    ell_c = np.array([BASE_Z * cos(phi), 0.0])
    ell_a = BASE_R * sin(phi)  # semi-axis along d1
    ell_b = BASE_R            # semi-axis along d2

    def h_ellipse(ux, uy):
        return ell_c[0] * ux + sqrt((ell_a * ux) ** 2 + (ell_b * uy) ** 2)

    def ellipse_argmax(ux, uy):
        nx, ny = ell_a * ell_a * ux, ell_b * ell_b * uy
        nn = sqrt((nx / ell_a) ** 2 + (ny / ell_b) ** 2)
        return np.array([ell_c[0] + nx / nn, ny / nn])

    thetas = [2.0 * pi * k / resolution for k in range(resolution)]
    gap = [apex2[0] * cos(t) - h_ellipse(cos(t), sin(t)) for t in thetas]
    crossings = sum(1 for k in range(resolution)
                    if gap[k] > 0 >= gap[(k + 1) % resolution]
                    or gap[k] <= 0 < gap[(k + 1) % resolution])
    flat_spots = crossings  # each sign change is one tangent segment's normal

    nonexposed = 0
    for k in range(resolution):
        if not (gap[k] > 0 >= gap[(k + 1) % resolution]
                or gap[k] <= 0 < gap[(k + 1) % resolution]):
            continue
        # refine the kink direction, then test first-order contact at tangency
        lo, hi = thetas[k], thetas[k] + 2.0 * pi / resolution
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = apex2[0] * cos(mid) - h_ellipse(cos(mid), sin(mid))
            gl = apex2[0] * cos(lo) - h_ellipse(cos(lo), sin(lo))
            if (gl > 0) == (gm > 0):
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        p = ellipse_argmax(cos(t), sin(t))
        seg = apex2 - p
        grad = np.array([(p[0] - ell_c[0]) / ell_a ** 2, p[1] / ell_b ** 2])
        tang = np.array([-grad[1], grad[0]])
        sine = abs(seg[0] * tang[1] - seg[1] * tang[0]) / (
            np.linalg.norm(seg) * np.linalg.norm(tang) + 1e-300)
        if sine <= max(tol_flat, 1e-5):
            nonexposed += 1

    sharp_violations = 0
    for k in range(resolution):
        ux, uy = cos(thetas[k]), sin(thetas[k])
        g = apex2[0] * ux - h_ellipse(ux, uy)
        if abs(g) <= tol_flat:
            continue  # kink direction: exposed face is a segment, trivially sharp
        if g > 0:
            # apex exposed: u must be strictly inside the apex normal cone,
            # i.e. strictly beat the ellipse, which is exactly g > 0
            continue
        # ellipse point exposed: normal cone is the single ray through u
        p = ellipse_argmax(ux, uy)
        n = np.array([(p[0] - ell_c[0]) / ell_a ** 2, p[1] / ell_b ** 2])
        n /= np.linalg.norm(n)
        if abs(n[0] * uy - n[1] * ux) > 1e-7:
            sharp_violations += 1

    # ---- intersection: solid cone cut by the plane ----
    def in_cone(pt3, slack=0.0):
        x, y, z = pt3
        if z < BASE_Z - slack or z > APEX_Z + slack:
            return False
        k = BASE_R / (APEX_Z - BASE_Z)
        return sqrt(x * x + y * y) <= k * (APEX_Z - z) + slack

    def boundary_point(theta):
        d = cos(theta) * d1 + sin(theta) * d2
        lo, hi = 0.0, 4.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if in_cone(mid * d):
                lo = mid
            else:
                hi = mid
        return lo, lo * d

    pts = [boundary_point(t) for t in thetas]
    base_active = [abs(p3[2] - BASE_Z) <= 1e-9 for _, p3 in pts]
    runs = 0
    for k in range(resolution):
        if base_active[k] and not base_active[k - 1]:
            runs += 1
    intersection_flat_spots = runs

    # every sampled boundary point's face must be exposed: the face of a point
    # on the lateral conic arc is the singleton, on the base chord the chord;
    # both are cut out by their supporting line in the plane
    all_exposed = True
    coords = [np.array([mu * cos(t), mu * sin(t)]) for (mu, _), t in zip(pts, thetas)]
    for k in range(0, resolution, max(1, resolution // 180)):
        x2 = coords[k]
        if base_active[k]:
            # base constraint reads s*cos(phi) >= BASE_Z in plane coordinates,
            # so the chord's outward normal is the negative s direction
            u2 = np.array([-1.0, 0.0])
        else:
            prev_p, next_p = coords[k - 1], coords[(k + 1) % resolution]
            tangent = next_p - prev_p
            u2 = np.array([tangent[1], -tangent[0]])
            u2 /= np.linalg.norm(u2) + 1e-300
            if np.dot(u2, x2) < 0:
                u2 = -u2
        h = max(np.dot(u2, c) for c in coords)
        face = [c for c in coords if np.dot(u2, c) >= h - 1e-7]
        if base_active[k]:
            spread = max(np.linalg.norm(a - face[0]) for a in face)
            if spread < 1e-6:
                all_exposed = False  # chord face should have positive length
        else:
            if max(np.linalg.norm(a - x2) for a in face) > 1e-4:
                all_exposed = False
    return ConeExperimentReport(
        phi_deg, HALF_APERTURE_DEG, conic, flat_spots, nonexposed,
        sharp_violations, intersection_flat_spots, all_exposed,
        verify_cone_frame(), resolution)
