"""Queue disciplines: DropTail, RED (gentle/adaptive, ECN), PI and REM AQM.

Construct disciplines with their class constructors; :func:`make_queue`
with a :class:`QueueConfig` is the name-keyed, validating front door for
serialised configs.
"""

from .base import QueueDiscipline, QueueStats
from .config import DISCIPLINES, QueueConfig, make_queue
from .droptail import DropTailQueue
from .pi import PiQueue
from .red import RedQueue
from .rem import RemQueue

__all__ = [
    "QueueDiscipline",
    "QueueStats",
    "QueueConfig",
    "make_queue",
    "DISCIPLINES",
    "DropTailQueue",
    "RedQueue",
    "PiQueue",
    "RemQueue",
]
