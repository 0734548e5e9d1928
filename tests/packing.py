"""Solutions handed to the block check as the solver hands them over."""

from dgq import linalg


class Packed:
    """Tuples of ``ncols`` values over Z/m, iterated as they are, whose
    ``blocks(size)`` packs them, in order, into the solver's blocks of at
    most ``size``."""

    def __init__(self, solutions, ncols: int, m: int):
        self.solutions, self.ncols, self.m = list(solutions), ncols, m

    def __iter__(self):
        return iter(self.solutions)

    def blocks(self, size: int):
        sols = self.solutions
        return (linalg._pack(sols[i:i + size], self.ncols, self.m)
                for i in range(0, len(sols), size))
