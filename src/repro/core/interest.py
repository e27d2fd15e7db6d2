"""Inconsequential action elimination — Section IV-A of the paper.

The paper's example: a participant playing a human does not need to
reliably know the locations of every insect, while an insect-player
needs both insects and humans.  Clients therefore declare the *interest
classes* of actions they care about, and the server skips actions whose
class a client did not subscribe to — *as push candidates only*.  An
uninteresting action that transitively affects an interesting one still
travels via the Algorithm 6 closure, so consistency (Theorem 1) is
preserved; what is eliminated is the direct fan-out.

Conventions
-----------
* An action's class defaults to ``"default"``, which is consequential
  to every client regardless of subscriptions (movement and combat in
  the evaluation worlds use it).
* A client with ``interests=None`` subscribes to everything.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

#: The class that every client implicitly subscribes to.
DEFAULT_CLASS = "default"


def profile(*classes: str) -> FrozenSet[str]:
    """Build an interest profile from class names.

    The default class is always included — a client may not opt out of
    actions the world designer marked universally consequential.

    >>> sorted(profile("insect"))
    ['default', 'insect']
    """
    return frozenset(classes) | {DEFAULT_CLASS}


def is_consequential(
    action_class: str, interests: Optional[FrozenSet[str]]
) -> bool:
    """Whether an action of ``action_class`` is a push candidate for a
    client with the given ``interests``.

    >>> is_consequential("insect", None)
    True
    >>> is_consequential("insect", profile("human"))
    False
    >>> is_consequential("default", profile("human"))
    True
    """
    if interests is None:
        return True
    return action_class == DEFAULT_CLASS or action_class in interests
