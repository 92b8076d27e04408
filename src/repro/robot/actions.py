"""Library of robot actions (machine services).

The paper's KUKA robot exposes 30 unique actions (pick-and-place machine
services) activated through an OPC UA server; the training recording cycles
through all of them.  This module generates a deterministic library of 30
actions, each defined by joint-space waypoints and segment durations.  The
waypoints are derived from a seeded random generator so every action has a
distinct, repeatable motion signature -- which is what lets a detector learn
"normal behaviour" per action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .kinematics import JOINT_LIMITS_RAD, KukaLBRIiwa
from .trajectory import JointTrajectory, plan_waypoint_trajectory

__all__ = ["RobotAction", "ActionLibrary", "DEFAULT_NUM_ACTIONS"]

DEFAULT_NUM_ACTIONS = 30

# The home (rest) configuration between actions, well inside the joint limits.
_HOME_CONFIGURATION = np.deg2rad(np.array([0.0, 30.0, 0.0, -60.0, 0.0, 45.0, 0.0]))


@dataclass(frozen=True)
class RobotAction:
    """One machine service: a named waypoint path with per-segment durations."""

    action_id: int
    name: str
    waypoints: Sequence[np.ndarray]
    segment_durations: Sequence[float]

    @property
    def duration(self) -> float:
        """Nominal duration of the action in seconds."""
        return float(sum(self.segment_durations))

    def plan(self, sample_rate: float) -> JointTrajectory:
        """Sample the action's joint trajectory at ``sample_rate`` Hz."""
        return plan_waypoint_trajectory(self.waypoints, self.segment_durations, sample_rate)


class ActionLibrary:
    """Deterministic library of pick-and-place actions for the simulator."""

    def __init__(self, num_actions: int = DEFAULT_NUM_ACTIONS, seed: int = 7,
                 min_waypoints: int = 3, max_waypoints: int = 6,
                 min_segment_duration: float = 0.8, max_segment_duration: float = 2.5,
                 amplitude_scale: float = 0.55) -> None:
        if num_actions < 1:
            raise ValueError("num_actions must be at least 1")
        if min_waypoints < 2 or max_waypoints < min_waypoints:
            raise ValueError("invalid waypoint count range")
        if min_segment_duration <= 0 or max_segment_duration < min_segment_duration:
            raise ValueError("invalid segment duration range")
        if not 0.0 < amplitude_scale <= 1.0:
            raise ValueError("amplitude_scale must be in (0, 1]")
        self.num_actions = num_actions
        self.seed = seed
        self._kinematics = KukaLBRIiwa()
        self._actions: Dict[int, RobotAction] = {}
        rng = np.random.default_rng(seed)
        for action_id in range(num_actions):
            self._actions[action_id] = self._build_action(
                action_id, rng, min_waypoints, max_waypoints,
                min_segment_duration, max_segment_duration, amplitude_scale,
            )

    def _build_action(self, action_id: int, rng: np.random.Generator,
                      min_waypoints: int, max_waypoints: int,
                      min_duration: float, max_duration: float,
                      amplitude_scale: float) -> RobotAction:
        n_waypoints = int(rng.integers(min_waypoints, max_waypoints + 1))
        waypoints: List[np.ndarray] = [_HOME_CONFIGURATION.copy()]
        for _ in range(n_waypoints - 2):
            target = rng.uniform(-amplitude_scale, amplitude_scale, size=7) * JOINT_LIMITS_RAD
            waypoints.append(self._kinematics.clamp_joints(target))
        waypoints.append(_HOME_CONFIGURATION.copy())
        durations = rng.uniform(min_duration, max_duration, size=len(waypoints) - 1)
        return RobotAction(
            action_id=action_id,
            name=f"pick_and_place_{action_id:02d}",
            waypoints=tuple(waypoints),
            segment_durations=tuple(float(d) for d in durations),
        )

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_actions

    def __getitem__(self, action_id: int) -> RobotAction:
        if action_id not in self._actions:
            raise KeyError(f"unknown action id {action_id}")
        return self._actions[action_id]

    def __iter__(self):
        return iter(self._actions.values())

    @property
    def action_ids(self) -> List[int]:
        return sorted(self._actions)

    def schedule(self, total_duration: float,
                 rng: Optional[np.random.Generator] = None,
                 shuffle: bool = False) -> List[int]:
        """Sequence of action ids filling ``total_duration`` seconds.

        Actions are cycled uniformly (matching the paper's uniform
        distribution of actions over the recording); with ``shuffle`` the
        order within each cycle is permuted.
        """
        if total_duration <= 0:
            raise ValueError("total_duration must be positive")
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        sequence: List[int] = []
        elapsed = 0.0
        while elapsed < total_duration:
            cycle = list(self.action_ids)
            if shuffle:
                rng.shuffle(cycle)
            for action_id in cycle:
                sequence.append(action_id)
                elapsed += self[action_id].duration
                if elapsed >= total_duration:
                    break
        return sequence
