"""Character tables of finite groups, the labelled graphs carried by their
representations, and the K-theory and structure of the associated algebras.

Each module's `__all__` declares its public names; the package exports them
all, so a name is declared in one place."""

from .chartable import *
from .corrgraph import *
from .cyclo import *
from .errors import *
from .graphs import *
from .groups import *
from .intlinalg import *
from .reps import *

__version__ = "0.1.0"

__all__ = (chartable.__all__ + corrgraph.__all__ + cyclo.__all__ + errors.__all__
           + graphs.__all__ + groups.__all__ + intlinalg.__all__ + reps.__all__
           + ["__version__"])
