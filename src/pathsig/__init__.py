"""Path signatures and signature-based skeleton action features.

The library has three layers:

* ``signature``: truncated iterated-integral signatures of discrete
  paths, with exact per-segment closed forms and Chen concatenation.
* ``transforms`` / ``skeleton``: path lifts (time, lead-lag, dyadic
  windows) and the skeleton feature stack built from them.
* ``classifier``: a seeded linear network with dropconnect training,
  plus the two-stage actor-count routing scheme.

``pathsig.cli`` exposes the same functionality as a command line tool;
``pathsig.io`` reads and writes every file format it uses.
"""

from . import classifier, signature, skeleton, transforms
from .classifier import *  # noqa: F401,F403
from .errors import FormatError, InputError
from .signature import *  # noqa: F401,F403
from .skeleton import *  # noqa: F401,F403
from .transforms import *  # noqa: F401,F403

__all__ = sorted(["FormatError", "InputError", *signature.__all__, *transforms.__all__,
                  *skeleton.__all__, *classifier.__all__])

__version__ = "0.1.0"
