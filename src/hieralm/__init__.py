"""Augmented Lagrangian solver for convex QPs with two priority levels of
equality constraints, including exact and weighted infeasibility shifts.

The package exports the public names of its four library modules, each listed
once in that module's ``__all__``; the command line lives in ``hieralm.cli``.
Importing the package loads numpy alone; SciPy is imported by the first solve.
"""

from . import alm, control, netflow, problem
from .alm import *
from .control import *
from .netflow import *
from .problem import *

__version__ = "0.1.0"

__all__ = sorted({*alm.__all__, *control.__all__, *netflow.__all__, *problem.__all__})
