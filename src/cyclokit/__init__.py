"""cyclokit: classification of quadratic cyclotomic extensions.

The package decides when adjoining a primitive n-th root of unity to a base
field (the rationals or a finite field) yields a degree-2 extension, computes
the conjugation exponent and minimal polynomial of such a root, classifies
the extensions by prime sets and moduli presentations, and embeds them into
the field's quadratic-extension classes — with every formula cross-checked
against an independent brute-force oracle.  The package does not import the
oracle; ``cyclokit.oracle`` is imported on its own by those who realize or
cross-check concrete values (the CLI and the tests).

The public API is the union of the submodules' ``__all__`` lists.
"""

from . import automorphisms, errors, field_profile, moduli, numtheory, quadcyclo, roots
from .automorphisms import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .field_profile import *  # noqa: F401,F403
from .moduli import *  # noqa: F401,F403
from .numtheory import *  # noqa: F401,F403
from .quadcyclo import *  # noqa: F401,F403
from .roots import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    [
        "__version__",
        *automorphisms.__all__,
        *errors.__all__,
        *field_profile.__all__,
        *moduli.__all__,
        *numtheory.__all__,
        *quadcyclo.__all__,
        *roots.__all__,
    ]
)
