"""immlab: execution graphs, consistency models, and promise simulation for
small concurrent programs."""

__version__ = "0.1.0"

from .execgraph import Event, Execution, Fence, Label, Read, Write  # noqa: F401
from .program import LitmusTest, Program, parse_litmus  # noqa: F401
from .relalg import Rel  # noqa: F401
