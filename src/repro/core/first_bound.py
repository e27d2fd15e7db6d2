"""The First Bound Model (Section III-D) and the Section IV-B
velocity-culling refinement of its conflict predicate.

The model has two parts:

* **Proactive pushes.**  Instead of replying only when a client submits,
  the server pushes to each client, every ω·RTT, all actions submitted
  in the previous window that might affect that client's future actions.
  This yields the paper's claim that the server hears the stable result
  of any action within (1+ω)·RTT.  The push *schedule* lives in the
  Incomplete World server; this module supplies the *predicate*.

* **Equation (1).**  An action A (position p̄_A, influence radius r_A)
  can affect a future action of client C (position p̄_C, max influence
  radius r_C) within the (1+ω)·RTT horizon iff

      ‖p̄_A − p̄_C‖ ≤ 2·s·(1+ω)·RTT + r_C + r_A

  where s is the maximum speed of any object: the worst case is A's
  effect and C racing towards each other at speed s each (Figure 4).

* **Area culling (Section IV-B).**  Actions with a velocity vector (an
  arrow in flight, a walking avatar) are not spheres of influence but
  moving points; the predicate then becomes

      ‖p̄_M + v̄_M·(t_M − t_C) − p̄_C‖ ≤ 2·s·(1+ω)·RTT + r_C

  which replaces the static radius r_A with the projected position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.core.action import Action
from repro.core.culling import moving_effect_affects, sphere_affects
from repro.errors import ConfigurationError
from repro.types import TimeMs
from repro.world.geometry import Vec2


@dataclass(frozen=True)
class FirstBoundPredicate:
    """The Equation (1) conflict test, optionally velocity-culled.

    Parameters
    ----------
    max_speed:
        s — maximum rate of change of any object's position, in world
        units per **second**.
    rtt_ms:
        Round-trip time between client and server (use RTT_max when
        clients differ, per the paper).
    omega:
        ω ∈ (0, 1) — the push-interval fraction of RTT (the range is
        declared on the ``omega`` settings knob).
    use_velocity_culling:
        Enable the Section IV-B refinement for actions that carry a
        velocity vector.
    """

    max_speed: float
    rtt_ms: TimeMs
    omega: float
    use_velocity_culling: bool = False

    def __post_init__(self) -> None:
        if self.max_speed < 0:
            raise ConfigurationError(f"max_speed must be >= 0, got {self.max_speed}")

    @property
    def horizon_ms(self) -> TimeMs:
        """(1+ω)·RTT — the response-time bound of the model."""
        return (1.0 + self.omega) * self.rtt_ms

    @property
    def push_interval_ms(self) -> TimeMs:
        """ω·RTT — the proactive push period."""
        return self.omega * self.rtt_ms

    @cached_property
    def reach(self) -> float:
        """2·s·(1+ω)·RTT in world units (speed is per second).  Cached:
        :meth:`affects` and :meth:`index_radius` read it per test."""
        return 2.0 * self.max_speed * self.horizon_ms / 1000.0

    def affects(
        self,
        action: Action,
        client_position: Optional[Vec2],
        client_radius: float,
        *,
        action_time: TimeMs = 0.0,
        client_position_time: TimeMs = 0.0,
    ) -> bool:
        """Whether ``action`` must be sent to a client at
        ``client_position`` (Equation (1)).

        Actions or clients without spatial information are conservatively
        considered affecting — the protocol may *never* withhold an
        action it cannot prove irrelevant, or Theorem 1 breaks the way
        RING does.

        ``action_time``/``client_position_time`` feed the velocity-culled
        variant (t_M and t_C of Section IV-B); they are ignored for
        actions without a velocity vector.
        """
        if action.position is None or client_position is None:
            return True
        if self.use_velocity_culling and action.velocity is not None:
            return moving_effect_affects(
                action.position,
                action.velocity,
                action_time,
                client_position,
                client_position_time,
                self.reach,
                client_radius,
            )
        return sphere_affects(
            action.position, action.radius, client_position, self.reach, client_radius
        )

    def index_radius(
        self, action: Action, max_client_radius: float
    ) -> Optional[float]:
        """Conservative candidate radius for a spatial client-index
        lookup, or ``None`` when the action cannot be spatially indexed
        and must be tested against every client.

        For a plain sphere of influence, every client the Equation (1)
        test can admit lies within ``reach + r_A + max r_C`` of p̄_A.
        The radius adds a drift margin m = 2·``reach`` to that, so a
        nomination made from a client's committed position q still
        covers every position p the client is later tested at while
        ‖p − q‖ ≤ 2·``reach``: the server lets a client drift ``reach``
        from the anchor its open window was nominated from, and every
        nomination is made within ``reach`` of that anchor
        (docs/performance.md, "Nominate once").  The margin is derived
        from the predicate, not a setting.

        Two cases defeat indexing and make every client a candidate:
        actions without a position (conservatively affect everyone),
        and — under velocity culling — actions with a velocity vector,
        whose projected position depends on each client's own t_C and
        therefore has no single query center.
        """
        if action.position is None:
            return None
        if self.use_velocity_culling and action.velocity is not None:
            return None
        return 3.0 * self.reach + action.radius + max_client_radius
