"""Exception hierarchy shared by all cuspidal modules."""


class CuspidalError(Exception):
    """Base class for all errors raised by this package."""


# exact linear algebra

class SingularMatrix(CuspidalError):
    pass


class NotDefinite(CuspidalError):
    pass


# lattice construction and vector arithmetic

class BadParameter(CuspidalError):
    pass


class MixedLattices(CuspidalError):
    pass


class ZeroVector(CuspidalError):
    pass


class DependentInput(CuspidalError):
    pass


class DegenerateComplement(CuspidalError):
    pass


class MemberOfSummand(CuspidalError):
    pass


class NotIsometry(CuspidalError):
    pass


# finite quadratic forms

class OddLattice(CuspidalError):
    pass


class GroupTooLarge(CuspidalError):
    pass


class NotIsotropic(CuspidalError):
    pass


# glue / overlattices / root systems

class NonIntegralGlue(CuspidalError):
    pass


class NotNegativeDefinite(CuspidalError):
    pass


class RootsNotFullRank(CuspidalError):
    pass


# cusp enumeration

class BadCase(CuspidalError):
    pass


class BadIndex(CuspidalError):
    pass


class NotSquareFree(CuspidalError):
    pass


# broken internal invariants (a defect of this package, not of the input)

class InternalError(CuspidalError):
    pass
