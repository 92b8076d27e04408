"""Forward kinematics of a 7-DOF anthropomorphic manipulator.

The paper's testbed is a KUKA LBR iiwa, a 7-joint collaborative arm.  The
simulator uses the iiwa-14 Denavit-Hartenberg parameters to map joint angles
to link poses; those poses drive the per-joint IMU models (orientation and
linear acceleration of each sensor mount point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["DHParameters", "KukaLBRIiwa", "JOINT_LIMITS_RAD"]

# Joint limits of the LBR iiwa 14 R820 in radians (+/- degrees: 170, 120, 170,
# 120, 170, 120, 175).
JOINT_LIMITS_RAD = np.deg2rad(np.array([170.0, 120.0, 170.0, 120.0, 170.0, 120.0, 175.0]))


@dataclass(frozen=True)
class DHParameters:
    """Modified Denavit-Hartenberg parameters for one link."""

    a: float       # link length [m]
    alpha: float   # link twist [rad]
    d: float       # link offset [m]
    theta_offset: float = 0.0  # constant joint-angle offset [rad]


# LBR iiwa 14 R820 DH table (link lengths in metres).
_IIWA_DH: Tuple[DHParameters, ...] = (
    DHParameters(a=0.0, alpha=-np.pi / 2, d=0.360),
    DHParameters(a=0.0, alpha=np.pi / 2, d=0.0),
    DHParameters(a=0.0, alpha=np.pi / 2, d=0.420),
    DHParameters(a=0.0, alpha=-np.pi / 2, d=0.0),
    DHParameters(a=0.0, alpha=-np.pi / 2, d=0.400),
    DHParameters(a=0.0, alpha=np.pi / 2, d=0.0),
    DHParameters(a=0.0, alpha=0.0, d=0.126),
)


def _dh_transform(params: DHParameters, theta: float) -> np.ndarray:
    """Homogeneous transform for one link at joint angle ``theta``."""
    angle = theta + params.theta_offset
    ct, st = np.cos(angle), np.sin(angle)
    ca, sa = np.cos(params.alpha), np.sin(params.alpha)
    return np.array([
        [ct, -st * ca, st * sa, params.a * ct],
        [st, ct * ca, -ct * sa, params.a * st],
        [0.0, sa, ca, params.d],
        [0.0, 0.0, 0.0, 1.0],
    ])


class KukaLBRIiwa:
    """Forward-kinematics model of the 7-DOF KUKA LBR iiwa."""

    n_joints = 7

    def __init__(self, dh_table: Sequence[DHParameters] = _IIWA_DH) -> None:
        if len(dh_table) != self.n_joints:
            raise ValueError(f"expected {self.n_joints} DH rows, got {len(dh_table)}")
        self.dh_table = tuple(dh_table)

    def clamp_joints(self, joint_angles: np.ndarray) -> np.ndarray:
        """Clamp a joint configuration to the physical joint limits."""
        joint_angles = np.asarray(joint_angles, dtype=np.float64)
        return np.clip(joint_angles, -JOINT_LIMITS_RAD, JOINT_LIMITS_RAD)

    def link_transforms(self, joint_angles: np.ndarray) -> List[np.ndarray]:
        """Cumulative 4x4 transforms of every link frame for one configuration."""
        joint_angles = np.asarray(joint_angles, dtype=np.float64).ravel()
        if joint_angles.shape[0] != self.n_joints:
            raise ValueError(f"expected {self.n_joints} joint angles, got {joint_angles.shape[0]}")
        transforms: List[np.ndarray] = []
        current = np.eye(4)
        for params, theta in zip(self.dh_table, joint_angles):
            current = current @ _dh_transform(params, float(theta))
            transforms.append(current.copy())
        return transforms

    def joint_positions(self, joint_angles: np.ndarray) -> np.ndarray:
        """Cartesian positions of the 7 link frames, shape (7, 3)."""
        transforms = self.link_transforms(joint_angles)
        return np.stack([t[:3, 3] for t in transforms])

    def joint_orientations_euler(self, joint_angles: np.ndarray) -> np.ndarray:
        """ZYX Euler angles (roll, pitch, yaw) of every link frame, shape (7, 3)."""
        transforms = self.link_transforms(joint_angles)
        angles = np.empty((self.n_joints, 3))
        for index, transform in enumerate(transforms):
            rotation = transform[:3, :3]
            pitch = -np.arcsin(np.clip(rotation[2, 0], -1.0, 1.0))
            roll = np.arctan2(rotation[2, 1], rotation[2, 2])
            yaw = np.arctan2(rotation[1, 0], rotation[0, 0])
            angles[index] = (roll, pitch, yaw)
        return angles

    def trajectory_positions(self, joint_trajectory: np.ndarray) -> np.ndarray:
        """Joint-frame positions along a trajectory, shape (T, 7, 3)."""
        joint_trajectory = np.asarray(joint_trajectory, dtype=np.float64)
        if joint_trajectory.ndim != 2 or joint_trajectory.shape[1] != self.n_joints:
            raise ValueError("joint_trajectory must have shape (T, 7)")
        return np.stack([self.joint_positions(q) for q in joint_trajectory])

    def trajectory_orientations(self, joint_trajectory: np.ndarray) -> np.ndarray:
        """Per-joint Euler orientations along a trajectory, shape (T, 7, 3)."""
        joint_trajectory = np.asarray(joint_trajectory, dtype=np.float64)
        if joint_trajectory.ndim != 2 or joint_trajectory.shape[1] != self.n_joints:
            raise ValueError("joint_trajectory must have shape (T, 7)")
        return np.stack([self.joint_orientations_euler(q) for q in joint_trajectory])

    def reach(self) -> float:
        """Maximum reach of the arm (sum of the DH link offsets/lengths)."""
        return float(sum(abs(p.d) + abs(p.a) for p in self.dh_table))
