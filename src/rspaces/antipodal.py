"""Maximal antipodal sets as Weyl orbits of the canonical element xi_I.

The Weyl group acts on dual-basis (coweight) coordinates, where entry j of a
vector is the value of alpha_j on it: s_j(v)_k = v_k - v_j * C[k][j].  The
orbit of xi_I is enumerated as a tree rooted at the dominant point xi_I, in
which every point has exactly one parent, so nothing is deduplicated.  Its
points correspond to the minimal coset representatives of W / W_J, where the
parabolic stabilizer W_J is generated by the simple reflections fixing xi_I.
The tree has depth L, the number of reduced positive roots nonzero on I, and
the longest Weyl element w0 maps its level n onto level L - n as
v -> -v[eps], eps the opposition involution of the Dynkin diagram (Humphreys,
Reflection Groups and Coxeter Groups, 1.8).  So only levels 0 .. ceil(L/2)
are walked; the rest are mirrors, checked where the two halves meet.  One
function walks and checks that half for both steps: numpy forms a level's
children, or pure Python does while numpy is not yet imported and the orbit
has at most COLD_ORBIT points, and numpy is then never imported.  Points
kept by numpy are sorted as one packed 8-byte key a point while they are
int8 and the rank is at most 8, and by np.lexsort otherwise.  The size
|W| / |W_J| comes first; it picks the walk, and the enumeration must stop
within it and reach it exactly.
"""

from __future__ import annotations

import struct
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import chain
from operator import neg, or_
from typing import TYPE_CHECKING

from .admissible import IndexSet, check_index_set, is_admissible
from .roots import RootSystem, weyl_group_order

if TYPE_CHECKING:  # numpy is imported at run time only by the functions that enumerate
    import numpy as np

CoweightVector = tuple[int, ...]

DEFAULT_ORBIT_BUDGET = 50_000_000
BLOCK = 1 << 17  # entries of one r x r x parents array of children in the orbit walk
# Until numpy is imported, orbits of at most this many points are walked in
# pure Python, without it: the walk takes about 2 ms for 2,000 points, numpy's
# import about 100 ms.  Every orbit of rank <= 4 (at most F4's 1,152 points)
# is below it, so whether a fresh process loads numpy does not hang on which
# such orbit it is asked for.
COLD_ORBIT = 2_000


def xi_vector(I: IndexSet, rank: int) -> CoweightVector:
    """xi_I in dual-basis coordinates: the 0/1 indicator vector of I."""
    check_index_set(I, rank)
    return tuple(1 if j in I else 0 for j in range(1, rank + 1))


def reflect(v: CoweightVector, j: int, system: RootSystem) -> CoweightVector:
    """Simple reflection s_j on dual-basis coordinates; involutive, integer-exact."""
    r = system.rank
    if not 1 <= j <= r:
        raise IndexError(f"index {j} out of range for rank {r}")
    if len(v) != r:
        raise ValueError(f"vector of length {len(v)} does not match rank {r}")
    c = system.cartan
    vj = v[j - 1]
    return tuple(v[k] - vj * c[k][j - 1] for k in range(r))


class OrbitPoints(Sequence):
    """Sorted orbit points: a read-only sequence of int tuples over one buffer.

    The points are held in any C-contiguous n x r buffer of native int16
    (a numpy array, or a memoryview of packed bytes), in lexicographic
    order.  Indexing and iteration unpack rows as tuples one at a time, so
    the points are never all held as Python objects, and numpy is imported
    only by `array`: a zero-copy, read-only n x r int16 array view.
    Equality and hashing are those of the tuple of tuples; two OrbitPoints
    compare by shape and values.
    """

    __slots__ = ("_view", "_row")

    def __init__(self, buffer) -> None:
        view = memoryview(buffer)
        if view.ndim != 2 or view.format != "h" or not view.c_contiguous:
            raise ValueError("orbit points must be a C-contiguous n x r int16 buffer")
        self._view = view.toreadonly()
        self._row = struct.Struct(f"{view.shape[1]}h")

    @property
    def array(self) -> np.ndarray:
        """The points as a read-only, C-contiguous n x r int16 array over the same buffer."""
        import numpy as np

        return np.asarray(self._view)

    def __len__(self) -> int:
        return self._view.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return self._row.unpack_from(self._view, range(len(self))[i] * self._row.size)

    def __iter__(self):
        return self._row.iter_unpack(self._view)

    def __eq__(self, other) -> bool:
        if isinstance(other, OrbitPoints):
            return self._view == other._view  # False for other shapes
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"OrbitPoints({len(self)} x {self._view.shape[1]} int16)"

    def __reduce__(self):
        return OrbitPoints, (self.array,)  # a memoryview does not pickle; an array does


@dataclass(frozen=True)
class OrbitResult:
    """Size (and optionally the points) of the Weyl orbit of xi_I.

    `level_sizes` counts the enumerated points by tree level, that is by
    coset-representative length; it is None when no enumeration ran.
    """

    size: int
    weyl_order: int
    stabilizer_order: int
    method: str  # "order_formula", or "both" when the enumeration ran too
    elements: OrbitPoints | None = field(default=None, hash=False)
    budget_exceeded: bool = False
    level_sizes: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        """The orbit's summary: neither its points nor `level_sizes`."""
        return {
            "size": self.size,
            "weyl_order": self.weyl_order,
            "stabilizer_order": self.stabilizer_order,
            "method": self.method,
            "budget_exceeded": self.budget_exceeded,
        }


def stabilizer_order(system: RootSystem, I: IndexSet) -> int:
    """Order of the parabolic stabilizer of xi_I.

    xi_I is dominant, so its stabilizer W_J is generated by the simple
    reflections s_j with j outside I, and |W_J| is the product of
    (ht a + 1) / ht a over the positive roots a vanishing on I (Macdonald,
    "The Poincare series of a Coxeter group", 1972).  Roots with no odd
    coefficient are exactly the doubled roots 2e_i of BC, skipped because
    W(BC_r) = W(B_r).
    """
    check_index_set(I, system.rank)
    odd_somewhere = reduce(or_, system.odd_columns)  # all roots but BC's doubled ones
    num = den = 1
    for root in system.roots_at(odd_somewhere & ~system.nonzero_on(I.mask)):
        height = sum(root)
        num *= height + 1
        den *= height
    order, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"{system.type} {I}: height product {num}/{den} is not an integer")
    return order


def _tree_depth(system: RootSystem, start: CoweightVector) -> int:
    """Depth L of the orbit tree of a dominant start: the length of w0 in W / W_J.

    It is the number of reduced positive roots nonzero on the start's
    support, read from the bitsets that stabilizer_order reads.
    """
    support = sum(1 << k for k, c in enumerate(start) if c)
    return (reduce(or_, system.odd_columns) & system.nonzero_on(support)).bit_count()


@cache
def _opposition(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The opposition involution eps of the Dynkin diagram, 0-based: w0 alpha_k = -alpha_eps(k).

    So (w0 v)_k = -v_eps(k) in dual-basis coordinates.  w0 takes the regular
    dominant vector (1, ..., r) to its one antidominant image, reached by
    applying s_j at the least j with v_j > 0 until no coordinate is positive;
    there v_k = -(eps(k) + 1).
    """
    r = len(cartan)
    v = list(range(1, r + 1))
    while (j := next((j for j, c in enumerate(v) if c > 0), None)) is not None:
        vj = v[j]
        v = [v[k] - vj * cartan[k][j] for k in range(r)]
    return tuple(-c - 1 for c in v)


def _value_bound(system: RootSystem, start: CoweightVector) -> int:
    """A bound on every value an orbit walk from start forms; it must fit in int16.

    A coordinate of w v is the pairing of the root w^-1 alpha_j with v, so it
    is at most h * max(v) in size, h the largest root height.  A step forms
    C[k][j] * v_j and v_k - C[k][j] * v_j; with lift = max(1, max |C[k][j]|)
    and C[j][j] = 2 <= 1 + lift, both are at most (1 + lift) * h * max(v) in
    size.
    """
    # off the diagonal C is <= 0, and a rank-1 matrix is (2), so this is max(1, max |C[k][j]|)
    lift = max(1, -min(map(min, system.cartan)))
    bound = (1 + lift) * sum(system.highest_root) * max(start)
    if bound > 0x7FFF:
        raise AssertionError(f"{system.type}: orbit values up to {bound} do not fit in int16")
    return bound


def _half_tree(system: RootSystem, level, children, sums, limit: int, keep: bool) -> tuple:
    """Walk the orbit tree of a dominant start half way: level sizes, walked levels, eps.

    The orbit is a tree rooted at the dominant point: every other point u has
    exactly one parent s_k u, where k is the least index with u_k < 0.  So
    from v the child s_j v is kept only if v_j > 0 and the child's coordinates
    before j are all >= 0.  Level n holds the minimal coset representatives of
    length n, and no point is produced twice.  A level holds one row per
    coordinate, so len(level[0]) is its size; `level` is level 0, the start
    point, `children` maps a level to the next and `sums` to its row sums.
    `limit` is the predicted orbit size: passing it means the rule is wrong.

    The longest element w0 maps level n onto level L - n as v -> -v[eps], the
    depth L from the roots (_tree_depth), eps the opposition involution
    (_opposition).  So levels 0 .. ceil(L/2) are walked, and each level L - n
    with n < floor(L/2) is the mirror of level n.  The walked level ceil(L/2)
    must have the size and row sums of the mirror of level floor(L/2), the
    same level when L is even: a wrong depth or involution fails at this seam.
    Only the current level and the next are held unless `keep`; then the
    walked levels are returned, and the caller mirrors the first
    len(sizes) - len(walked) of them.
    """
    depth, eps = _tree_depth(system, [row[0] for row in level]), _opposition(system.cartan)
    past_limit = f"orbit enumeration passed the predicted {limit} points"
    sizes, walked = [], []
    while True:
        sizes.append(n := len(level[0]))
        if sum(sizes) > limit:
            raise AssertionError(past_limit)
        if keep:
            walked.append(level)
        if len(sizes) == depth // 2 + 1:  # level floor(L/2): its mirror is level ceil(L/2)
            seam_n, seam_sums = n, sums(level)
        if len(sizes) > (depth + 1) // 2:
            break
        level = children(level)
    if seam_n != n or [-seam_sums[e] for e in eps] != sums(level):
        raise AssertionError(f"{system.type}: the walked half of depth {depth} misses its mirror")
    sizes += reversed(sizes[: depth // 2])
    if sum(sizes) > limit:
        raise AssertionError(past_limit)
    return sizes, walked, eps


def _orbit_walk(
    system: RootSystem, start: CoweightVector, limit: int, keep_elements: bool
) -> tuple[list[int], memoryview | None]:
    """The _half_tree walk stepped in pure Python: its level sizes, and optionally its points.

    A level is a tuple of r coordinate tuples.  The child s_j v is kept when
    v_j > 0 and v_k >= C[k][j] * v_j for every k < j (its coordinates before j
    are >= 0), which is tested before it is formed; forming it changes only j
    and its Dynkin neighbours.  A mirror negates the coordinate tuples of eps
    in turn.  Kept points are sorted and packed as a read-only n x r
    memoryview of native int16.
    """
    _value_bound(system, start)
    cartan, r = system.cartan, system.rank
    below = [[(k, cartan[k][j]) for k in range(j)] for j in range(r)]
    touched = [[(k, row[j]) for k, row in enumerate(cartan) if row[j]] for j in range(r)]

    def children(level: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
        out = []
        for v in zip(*level):
            for j, vj in enumerate(v):
                if vj <= 0:
                    continue
                for k, c in below[j]:
                    if v[k] < c * vj:
                        break
                else:
                    w = list(v)
                    for k, c in touched[j]:
                        w[k] -= c * vj
                    out.append(tuple(w))
        return tuple(zip(*out)) or ((),) * r

    sums = lambda level: list(map(sum, level))
    sizes, walked, eps = _half_tree(system, tuple(zip(start)), children, sums, limit, keep_elements)
    if not keep_elements:
        return sizes, None
    for level in walked[: len(sizes) - len(walked)]:
        walked.append([map(neg, level[e]) for e in eps])  # read once, by zip below
    points = sorted(chain.from_iterable(zip(*level) for level in walked))
    packed = struct.pack(f"{len(points) * r}h", *chain.from_iterable(points))
    return sizes, memoryview(packed).cast("h", (len(points), r))


def _orbit_bfs(
    system: RootSystem, start: CoweightVector, limit: int, keep_elements: bool
) -> tuple[list[int], np.ndarray | None]:
    """The _half_tree walk stepped by numpy: its level sizes, and optionally its points.

    A step forms every child of a block of parents at once, in one r x r x nb
    array of (s_j v)_k indexed [k, j, parent], and one compress keeps s_j v
    where v_j > 0 and no entry of column [:, j] lies below floor[:, j]: 0
    before j, the dtype's least value from j on.  So a step is a fixed
    handful of array calls whatever the rank.  A level of more than
    BLOCK // r^2 parents is cut into blocks, which bounds the temporaries,
    and their children are concatenated.  _sorted_points mirrors and sorts
    the kept walked levels.

    Levels are int8 when the bound of _value_bound fits and int16 otherwise;
    a mirror only negates values within it.
    """
    import numpy as np

    cartan, r = system.cartan, system.rank
    dtype = np.int8 if _value_bound(system, start) <= np.iinfo(np.int8).max else np.int16
    matrix, floor = _walk_arrays(cartan, dtype)
    per_block = max(1, BLOCK // (r * r))

    def step(level: np.ndarray) -> np.ndarray:
        """The kept children of a block of parents, by j and then by parent."""
        every = matrix * level
        np.subtract(level[:, None, :], every, out=every)  # [k, j, p]: (s_j v_p)_k
        keep = np.logical_and.reduce(every >= floor, axis=0)
        keep &= level > 0
        return every.reshape(r, -1).compress(keep.ravel(), axis=1)

    def children(level: np.ndarray) -> np.ndarray:
        """The kept children of a level, block by block; the temporaries die on return."""
        if level.shape[1] <= per_block:
            return step(level)
        blocks = [step(level[:, i : i + per_block]) for i in range(0, level.shape[1], per_block)]
        return np.concatenate(blocks, axis=1)

    sums = lambda level: level.sum(axis=1).tolist()
    first = np.array(start, dtype=dtype).reshape(-1, 1)
    sizes, walked, eps = _half_tree(system, first, children, sums, limit, keep_elements)
    points = _sorted_points(walked, sum(sizes[len(walked) :]), eps) if keep_elements else None
    return sizes, points


@cache
def _walk_arrays(cartan: tuple[tuple[int, ...], ...], dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """_orbit_bfs's read-only r x r x 1 step arrays for one Cartan matrix and level dtype.

    matrix[k, j] is C[k][j]; floor[k, j], the least coordinate k of a kept
    child s_j v, is 0 before j and the dtype's least value from j on.
    """
    import numpy as np

    r = len(cartan)
    matrix = np.array(cartan, dtype=dtype)[:, :, None]
    floor = np.tril(np.full((r, r), np.iinfo(dtype).min, dtype=dtype))[:, :, None]
    matrix.flags.writeable = floor.flags.writeable = False
    return matrix, floor


def _sorted_points(levels: list[np.ndarray], m: int, eps: Sequence[int]) -> np.ndarray:
    """The kept levels of _orbit_bfs, mirrored and sorted, as a C-contiguous n x r int16 array.

    The walked levels are joined and taken from `levels`, which holds the
    only references to them, so that they are freed before the result is
    allocated; the first m joined points are mirrored as -v[eps].  Int8
    points of rank <= 8 are sorted in place as little-endian uint64 keys,
    coordinate k in byte 7 - k with its sign bit flipped; others by np.lexsort.
    """
    import numpy as np

    points = np.concatenate(levels, axis=1)
    levels.clear()
    r, filled = points.shape
    if points.dtype != np.int8 or r > 8:
        points = np.concatenate([points, -points[list(eps), :m]], axis=1)
        points = points.take(np.lexsort(points[::-1]), axis=1)
        return np.ascontiguousarray(points.T, dtype=np.int16)
    keys = np.zeros((filled + m, 8), np.int8)
    for k in range(r):  # one 1-D column copy a coordinate: the 2-D strided copy is slower
        keys[:filled, 7 - k] = points[k]
        np.negative(points[eps[k], :m], out=keys[filled:, 7 - k])
    del points
    packed = keys.view("<u8").reshape(-1)  # explicitly little-endian: the same order on any host
    sign = np.uint64(int.from_bytes(bytes(8 - r) + b"\x80" * r, "little"))
    packed ^= sign
    packed.sort()
    packed ^= sign
    out = np.empty((len(keys), r), np.int16)
    for k in range(r):
        out[:, k] = keys[:, 7 - k]
    return out


def orbit(
    system: RootSystem,
    I: IndexSet,
    enumerate: bool = False,
    keep_elements: bool = False,
    budget: int = DEFAULT_ORBIT_BUDGET,
) -> OrbitResult:
    """Weyl orbit of xi_I: by the order formula, by BFS, or both.

    With enumerate=True the BFS runs and must agree with the quotient
    |W| / |stabilizer|.  The budget caps the orbit's total points and is
    compared with that quotient before any enumeration: larger orbits fall
    back to the formula with budget_exceeded set.  The quotient also picks
    the walk: the pure-Python _orbit_walk, which leaves numpy unimported,
    while numpy is not yet imported and the orbit has at most COLD_ORBIT
    points; the numpy _orbit_bfs otherwise.  keep_elements keeps the
    lexicographically sorted points as OrbitPoints (implies enumerate).
    """
    check_index_set(I, system.rank)
    if not isinstance(budget, int) or budget <= 0:
        raise ValueError(f"budget must be a positive int, got {budget!r}")
    w = weyl_group_order(system.type)
    stab = stabilizer_order(system, I)
    predicted, rem = divmod(w, stab)
    if rem:
        raise AssertionError(f"stabilizer order {stab} does not divide |W| = {w}")
    enumerate = enumerate or keep_elements
    if not enumerate:
        return OrbitResult(predicted, w, stab, "order_formula")
    if predicted > budget:
        return OrbitResult(predicted, w, stab, "order_formula", budget_exceeded=True)
    walk = _orbit_walk if "numpy" not in sys.modules and predicted <= COLD_ORBIT else _orbit_bfs
    sizes, points = walk(system, xi_vector(I, system.rank), predicted, keep_elements)
    size = sum(sizes)
    if size != predicted:
        raise AssertionError(
            f"orbit enumeration found {size} points but |W|/|W_I| = {predicted}"
        )
    elements = OrbitPoints(points) if points is not None else None
    return OrbitResult(size, w, stab, "both", elements=elements, level_sizes=tuple(sizes))


def two_number(system: RootSystem, I: IndexSet) -> int:
    """Cardinality of a maximal antipodal set of X_I: the Weyl orbit size of xi_I.

    Requires I admissible; otherwise the index set carries no compatible
    family of point symmetries and the antipodal count is undefined.
    """
    if not is_admissible(system, I):
        raise ValueError(
            f"{I} is not admissible for {system.type}: some positive root is even "
            "and nonzero on it, so the required symmetric structure does not exist"
        )
    return orbit(system, I).size


def elements_to_bytes(elements: OrbitPoints) -> memoryview:
    """Read-only little-endian int16 byte view of the points, row-major; a copy on big-endian hosts only."""
    data = elements._view.cast("B")
    if sys.byteorder == "big":
        data = memoryview(struct.pack(f"<{len(data) // 2}h", *data.cast("h")))
    return data.toreadonly()
