"""Calibrated-camera math: projection, fundamental matrices, epipolar
distances, multi-view triangulation and ray-plane intersection.

Conventions:
  - World frame is right-handed, z-up, units in meters.
  - Image frame has its origin at the top-left corner, units in pixels.
  - R maps world to camera: x_cam = R @ (X - center) = R @ X + t.

The per-frame work is done on stacked arrays: `triangulate_batch` solves
F frames seen by one set of V cameras with one batched `eigh` of the 4x4
DLT normal matrices A^T A and one batched Gauss-Newton step, whose 3x3
normal equations are solved in closed form (`gauss_newton_step`, with a
`pinv` fallback for near-singular rows); `epipolar_distance_batch` scores
N point pairs with one matrix product, and `ray_plane_intersect_batch`
intersects N pixel rays of one camera.  Failures are reported per row (a
mask, or NaN) instead of raised, so one degenerate frame leaves the others
intact.  `project` maps (N, 3) world points to (N, 2) pixels, NaN where
a point is on or behind the principal plane.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .records import INT, NUM, read_json, require, write_json


MIN_DEPTH_M = 1e-9
PARALLEL_RAY_RAD = 1e-6
# Rows of `gauss_newton_step` whose J^T J has a Frobenius condition number
# above this (cond(J) above about 1e4) are solved by pinv: the closed-form
# normal equations lose cond(J)^2 * eps of relative precision.
NORMAL_COND_LIMIT = 1e8


@dataclass(frozen=True)
class CameraModel:
    """One calibrated pinhole view.

    K is the 3x3 intrinsic matrix in pixels, R the world-to-camera
    rotation, t the translation in meters.  P = K [R|t] and the optical
    center -R^T t are derived and cached at construction.
    """

    id: int
    K: np.ndarray
    R: np.ndarray
    t: np.ndarray
    P: np.ndarray = field(init=False, repr=False)
    center: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float).reshape(3, 3)
        R = np.asarray(self.R, dtype=float).reshape(3, 3)
        t = np.asarray(self.t, dtype=float).reshape(3)
        if not (np.isfinite(K).all() and np.isfinite(R).all() and np.isfinite(t).all()):
            raise ValueError(f"camera {self.id}: K, R and t must be finite")
        if np.max(np.abs(R.T @ R - np.eye(3))) >= 1e-9:
            raise ValueError(f"camera {self.id}: R is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) >= 1e-9:
            raise ValueError(f"camera {self.id}: det(R) != 1")
        if K[0, 0] <= 0 or K[1, 1] <= 0:
            raise ValueError(f"camera {self.id}: non-positive focal length")
        if abs(K[2, 2] - 1.0) > 0 or K[1, 0] != 0 or K[2, 0] != 0 or K[2, 1] != 0:
            raise ValueError(f"camera {self.id}: K lower triangle must be [0,0,0] with K[2,2]=1")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "P", K @ np.hstack([R, t[:, None]]))
        object.__setattr__(self, "center", -R.T @ t)


def _rows_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for an (N, k) a, with every row on one kernel: numpy computes a
    one-row product with a matrix-vector (or dot) kernel whose last bits
    differ from the multi-row one, so a single row is taken as the first
    row of a two-row product.  A row's result then does not depend on how
    many rows share the call."""
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def project(cam: CameraModel, points) -> np.ndarray:
    """Project (N, 3) world points to (N, 2) pixel coordinates; rows on or
    behind the principal plane (depth <= MIN_DEPTH_M) are NaN."""
    X = np.asarray(points, dtype=float)
    Xh = np.column_stack([X, np.ones(len(X))])
    # Stacked mat-vecs rather than one product with P.T: each row is then
    # bit-identical to P @ [X, 1].
    h = (cam.P[None] @ Xh[..., None])[..., 0]
    depth = (cam.R[2][None, None] @ X[..., None])[:, 0, 0] + cam.t[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        pixels = h[:, :2] / h[:, 2:]
    pixels[~(depth > MIN_DEPTH_M)] = np.nan
    return pixels


def fundamental_matrix(cam_i: CameraModel, cam_j: CameraModel) -> np.ndarray:
    """F such that x_j^T F x_i = 0 for projections x_i, x_j of one point.

    Built from the relative pose; normalized so the largest-magnitude
    entry is exactly 1.  Raises ValueError for two cameras that share an
    optical center, where no F exists.
    """
    if np.linalg.norm(cam_i.center - cam_j.center) < 1e-9:
        raise ValueError(f"cameras {cam_i.id} and {cam_j.id} share a center")
    R_rel = cam_j.R @ cam_i.R.T
    t_rel = cam_j.t - R_rel @ cam_i.t
    tx = np.array([
        [0.0, -t_rel[2], t_rel[1]],
        [t_rel[2], 0.0, -t_rel[0]],
        [-t_rel[1], t_rel[0], 0.0],
    ])
    E = tx @ R_rel
    F = np.linalg.inv(cam_j.K).T @ E @ np.linalg.inv(cam_i.K)
    flat = F.ravel()
    magnitude = np.abs(flat)
    # Among tied-magnitude peaks prefer the positive one, so the
    # normalization commutes with transposition (F_ba == F_ab^T).
    peak = flat[magnitude == magnitude.max()].max()
    return F / peak


def epipolar_distance_batch(F: np.ndarray, source, target,
                            target_scale) -> np.ndarray:
    """Normalized distances from each `target` pixel to the epipolar line
    of the matching `source` pixel.

    F maps source-view pixels to epipolar lines in the target view.
    `source` and `target` are (N, 2) pixel arrays; each point-to-line
    distance is divided by its `target_scale` entry (the |w+h| of the
    target box) so the measure is resolution independent.  Returns (N,),
    NaN for a row whose line is undefined: a source pixel at the epipole
    maps to (l1, l2) = (0, 0).
    """
    scale = np.asarray(target_scale, dtype=float)
    if not (scale > 0).all():
        raise ValueError("target_scale must be positive")
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    F = np.asarray(F, dtype=float)
    l = _rows_product(source, F[:, :2].T) + F[:, 2]
    norm = np.hypot(l[:, 0], l[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.abs(l[:, 0] * target[:, 0] + l[:, 1] * target[:, 1] + l[:, 2]) / norm
    d[norm == 0.0] = np.nan
    return d / scale


def pixel_ray_world_batch(cams: list[CameraModel], pixels) -> np.ndarray:
    """Unit directions (N, V, 3) in world coordinates of the rays through
    (N, V, 2) pixels, where pixels[:, k] lie in the image of cams[k]."""
    pixels = np.asarray(pixels, dtype=float)
    K = np.stack([cam.K for cam in cams])
    R = np.stack([cam.R for cam in cams])
    v_cam = np.ones(pixels.shape[:-1] + (3,))
    v_cam[..., :2] = (pixels - K[:, :2, 2]) / K[:, (0, 1), (0, 1)]
    v_world = np.einsum("nvi,vij->nvj", v_cam, R)  # row-vector form of R^T @ v_cam
    return v_world / np.linalg.norm(v_world, axis=-1, keepdims=True)


@dataclass(frozen=True)
class PlaneSpec:
    """A plane given by a unit normal and one on-plane point."""

    n: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float).reshape(3)
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            raise ValueError("plane normal must be nonzero")
        if abs(norm - 1.0) >= 1e-9:
            n = n / norm
        if abs(n[2]) >= 1e-9:
            warnings.warn(
                f"plane normal {n.tolist()} is not horizontal; plane is not vertical",
                stacklevel=2,
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float).reshape(3))


def ray_plane_intersect_batch(cam: CameraModel, pixels,
                              plane: PlaneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Intersect the back-projected rays of (N, 2) pixels with a plane.

    Returns (points, s): the (N, 3) intersections and the (N,) ray
    multipliers.  Only hits in front of the camera (s > 0) are valid; the
    paper-style formula alone would also admit hits behind the optical
    center.  s is NaN where the ray is parallel to the plane and <= 0
    where the hit lies behind the camera; points are NaN in both cases.
    """
    v = pixel_ray_world_batch([cam], np.asarray(pixels, dtype=float)[:, None])[:, 0]
    denom = _rows_product(v, plane.n)
    parallel = np.abs(denom) <= 1e-9
    s = float(plane.n @ (plane.point - cam.center)) / np.where(parallel, np.nan, denom)
    points = cam.center + s[:, None] * v
    points[~(s > 0)] = np.nan
    return points, s


def gauss_newton_step(J, r) -> np.ndarray:
    """Least-squares steps argmin ||J[n] @ d - r[n]|| for (N, M, 3) J and
    (N, M) r; returns (N, 3).

    Each row solves the 3x3 normal equations (J^T J) d = J^T r through the
    adjugate, with elementwise numpy.  Rows whose J^T J is near singular
    (Frobenius condition number above NORMAL_COND_LIMIT, which includes a
    rank-deficient J) or whose step is not finite are solved instead with
    `np.linalg.pinv` and the lstsq cutoff, which gives the minimum-norm
    step there.
    """
    J = np.asarray(J, dtype=float)
    r = np.asarray(r, dtype=float)
    Jt = J.transpose(0, 2, 1)
    M = Jt @ J
    g = (Jt @ r[..., None])[..., 0]
    a, b, c = M[:, 0, 0], M[:, 0, 1], M[:, 0, 2]
    d, e, f = M[:, 1, 1], M[:, 1, 2], M[:, 2, 2]
    # M is symmetric, and so is its adjugate.
    adj = np.stack([d * f - e * e, c * e - b * f, b * e - c * d,
                    c * e - b * f, a * f - c * c, b * c - a * e,
                    b * e - c * d, b * c - a * e, a * d - b * b], axis=1)
    det = a * adj[:, 0] + b * adj[:, 1] + c * adj[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = (adj.reshape(-1, 3, 3) @ g[..., None])[..., 0] / det[:, None]
        well = (np.linalg.norm(M.reshape(-1, 9), axis=1) * np.linalg.norm(adj, axis=1)
                < NORMAL_COND_LIMIT * np.abs(det))
    fallback = ~(well & np.isfinite(step).all(axis=1))
    if fallback.any():
        step[fallback] = (np.linalg.pinv(J[fallback], rtol=None)
                          @ r[fallback, :, None])[..., 0]
    return step


def triangulate_batch(cams: list[CameraModel],
                      pixels) -> tuple[np.ndarray, np.ndarray]:
    """Recover F 3D points, each observed once by every camera in `cams`.

    `pixels` is (F, V, 2): pixels[:, k] are the observations of cams[k].
    The homogeneous DLT solution of each frame is the eigenvector of the
    smallest eigenvalue of its 4x4 A^T A, found for all F frames by one
    batched `np.linalg.eigh`; one batched Gauss-Newton step
    (`gauss_newton_step`: closed-form normal equations, `pinv` only for
    near-singular or non-finite rows) then refines the reprojection
    objective.

    Returns (points, ok): (F, 3) points and an (F,) mask.  ok is False,
    and the point NaN, for every frame when `cams` holds fewer than two
    distinct cameras, and for a frame whose rays are parallel within
    PARALLEL_RAY_RAD or whose DLT solution lies at infinity.  The
    refinement is skipped for a frame whose point projects onto some
    camera's principal plane (|h_z| < 1e-12) or whose step is not finite.
    """
    pixels = np.asarray(pixels, dtype=float)
    n_frames, n_views = pixels.shape[:2]
    points = np.full((n_frames, 3), np.nan)
    if len({cam.id for cam in cams}) < 2:
        return points, np.zeros(n_frames, dtype=bool)

    rays = pixel_ray_world_batch(cams, pixels)
    ia, ib = zip(*itertools.combinations(range(n_views), 2))
    cosang = np.clip(np.einsum("fpi,fpi->fp", rays[:, ia], rays[:, ib]), -1.0, 1.0)
    ok = np.arccos(cosang).max(axis=1) >= PARALLEL_RAY_RAD

    P = np.stack([cam.P for cam in cams])
    A = np.empty((n_frames, n_views, 2, 4))
    A[:, :, 0] = pixels[:, :, 0, None] * P[:, 2] - P[:, 0]
    A[:, :, 1] = pixels[:, :, 1, None] * P[:, 2] - P[:, 1]
    A = A.reshape(n_frames, 2 * n_views, 4)
    # eigh orders eigenvalues ascending: column 0 is the DLT solution.
    Xh = np.linalg.eigh(A.transpose(0, 2, 1) @ A)[1][:, :, 0]
    ok &= np.abs(Xh[:, 3]) >= 1e-12
    X = Xh[ok, :3] / Xh[ok, 3:]
    obs = pixels[ok]

    # One Gauss-Newton refinement of sum ||x_c - pi(P_c, X)||^2.
    h = _rows_product(np.column_stack([X, np.ones(len(X))]),
                      P.reshape(-1, 4).T).reshape(len(X), n_views, 3)
    refine = np.all(np.abs(h[:, :, 2]) >= 1e-12, axis=1)
    h, obs = h[refine], obs[refine]
    hz = h[:, :, 2, None]
    uv = h[:, :, :2] / hz
    r = (obs - uv).reshape(len(h), 2 * n_views)
    J = (P[:, :2, :3] - uv[..., None] * P[:, 2, None, :3]) / hz[..., None]
    delta = gauss_newton_step(J.reshape(len(h), 2 * n_views, 3), r)
    finite = np.all(np.isfinite(delta), axis=1)
    rows = np.flatnonzero(refine)[finite]
    X[rows] += delta[finite]
    points[ok] = X
    return points, ok


def load_calibration(path) -> list[CameraModel]:
    """Read a JSON array of {id, K, R, t} camera records: K and R row-major
    or as nested rows.  Raises ValueError for an entry that is not such an
    object, an id that is not an integer within int64 or is repeated, a K, R
    or t entry not a finite JSON number, and K, R, t of no valid CameraModel."""
    records = read_json(path, "calibration")
    if not isinstance(records, list):
        raise ValueError("calibration file must contain a JSON array")
    cams: dict[int, CameraModel] = {}
    for k, rec in enumerate(records):
        if not isinstance(rec, dict) or not {"id", "K", "R", "t"} <= rec.keys():
            raise ValueError(f"calibration entry {k} must be an object with "
                             "keys id, K, R and t")
        where = f"calibration entry {k}: "
        require(rec["id"], INT, where + "id")
        if not -2**63 <= rec["id"] < 2**63:  # CameraRig.ids is int64
            raise ValueError(f"{where}id must fit in a signed 64-bit integer, got {rec['id']}")
        for key in ("K", "R", "t"):
            nested = type(rec[key]) is list and rec[key] and type(rec[key][0]) is list
            require(rec[key], [[NUM]] if nested else [NUM], where + key)
        if rec["id"] in cams:
            raise ValueError(f"{where}camera id {rec['id']} is repeated")
        try:
            cams[rec["id"]] = CameraModel(rec["id"], rec["K"], rec["R"], rec["t"])
        except ValueError as exc:
            raise ValueError(f"{where}{exc}") from exc
    return sorted(cams.values(), key=lambda c: c.id)


def save_calibration(cams: list[CameraModel], path) -> None:
    records = [
        {"id": c.id, "K": c.K.flatten().tolist(), "R": c.R.flatten().tolist(),
         "t": c.t.tolist()}
        for c in sorted(cams, key=lambda c: c.id)
    ]
    write_json(path, records)


class CameraRig:
    """A fixed set of calibrated cameras with their fundamental matrices,
    computed for every ordered pair of distinct cameras at construction.
    It owns rig order: `ids`, its sorted camera ids (int64), the order it
    iterates in and a camera's slot in every per-camera array.  Raises
    ValueError for two cameras that share an optical center."""

    def __init__(self, cameras: list[CameraModel]):
        self.cameras = {c.id: c for c in sorted(cameras, key=lambda c: c.id)}
        self.ids = np.array(list(self.cameras), dtype=np.int64)
        self._F = {(a.id, b.id): fundamental_matrix(a, b)
                   for a in cameras for b in cameras if a.id != b.id}

    def __getitem__(self, cam_id: int) -> CameraModel:
        return self.cameras[cam_id]

    def __iter__(self):
        return iter(self.cameras.values())

    def __len__(self):
        return len(self.cameras)

    def fundamental(self, source_id: int, target_id: int) -> np.ndarray:
        """F mapping source-view pixels to epipolar lines in the target view."""
        return self._F[(source_id, target_id)]
