"""Exception hierarchy shared by all cuspidal modules: ``CuspidalError``
and one subclass per outcome of ``cli.run``.

- ``BadParameter``, exit 2: a refused argument or input.  Every check on
  an argument of a public function raises it, naming what it refused.
- ``GroupTooLarge``, exit 2: a search or enumeration bound (``--bound``)
  stopped the run; the message names the bound.
- ``SingularMatrix``, exit 2: a singular matrix where an invertible one is
  needed; the callers that can go on without the inverse catch it.
- ``InternalError``, exit 3: a check on a value the package computed,
  which no argument can fail, found it broken: a defect of this package.
"""


class CuspidalError(Exception):
    """Base class for all errors raised by this package."""


class BadParameter(CuspidalError):
    pass


class GroupTooLarge(CuspidalError):
    pass


class SingularMatrix(CuspidalError):
    pass


class InternalError(CuspidalError):
    pass
